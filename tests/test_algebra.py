"""Structure-constant presentations: validation, products, corners, documents."""

import base64
import functools
import json
import random
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wedderburn import algebra, linalg
from wedderburn import (
    Algebra,
    build_planted,
    cayley_fixture,
    direct_sum,
    from_doc,
    group_algebra,
    make_presentation,
    matrix_algebra,
    scramble,
)
from wedderburn.errors import (
    EntryOutsideCorner,
    InternalInvariantViolation,
    InvalidDocument,
    NoIdentity,
    NotAssociative,
    NotCommutative,
    NotPrime,
    ShapeMismatch,
    UnsupportedCharacteristic,
)

from oracles import hom_rows


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


@pytest.mark.parametrize("sc, identity", [
    ([[[1.7]]], None),
    ([[[True]]], None),
    ([[["1"]]], None),
    (np.array([[[1.0]]]), None),
    ([[[1]]], [1.5]),
    ([[[1]]], [True]),
], ids=["float", "bool", "string", "float array", "float identity",
        "bool identity"])
def test_rejects_non_integer_entries(sc, identity):
    # refused, not truncated or coerced to 1
    with pytest.raises(InvalidDocument):
        make_presentation(5, sc, identity=identity)


def unital_f3_6():
    """F_3^6 on the basis 1, e_1 .. e_5 (e_0 = 1 - e_1 - ... - e_5)."""
    sc = np.zeros((6, 6, 6), dtype=np.int64)
    sc[0, range(6), range(6)] = sc[range(6), 0, range(6)] = 1
    sc[range(1, 6), range(1, 6), range(1, 6)] = 1
    return sc


def test_rejects_non_associative_and_oracle_agrees():
    # one constant corrupted on both sides of the draw cap: dims 4 and 6
    # take the exhaustive check at once, dims 9 and 16 draw the closure,
    # whose rows the nucleus test passes on the clean algebra
    bad_f3_6 = unital_f3_6()
    bad_f3_6[1, 2, 1] = 1  # e_1 e_2 = e_1
    # scrambled after the corruption, so the cube is dense and still unital
    bad_m4 = Algebra(97, corrupted_m2(97, 4), validate=False)
    cases = [
        (7, m2().sc, corrupted_m2()),
        (3, unital_f3_6(), bad_f3_6),
        (7, matrix_algebra(7, 3).algebra.sc, corrupted_m2(n=3)),
        (97, scramble(matrix_algebra(97, 4).algebra, seed=1)[0].sc,
         scramble(bad_m4, seed=1)[0].sc),
    ]
    for p, clean, sc in cases:
        A = Algebra(p, clean)
        n = A.dim
        gens = A._closure()
        assert (gens is None) == (n <= 6)
        if gens is not None:
            left = linalg.matmul_mod(gens, A._ltable, p).reshape(-1, n, n)
            assert A._nucleus_defect(left) is None
        want = oracle_first_failure(sc.tolist(), p)
        assert want is not None
        with pytest.raises(NotAssociative) as info:
            make_presentation(p, sc)
        assert info.value.witness == want
        # the witness triple really does violate associativity
        i, j, k = want
        basis = [[int(t == s) for s in range(n)] for t in range(n)]
        c = sc.tolist()
        lhs = oracle_mul(c, oracle_mul(c, basis[i], basis[j], p), basis[k], p)
        rhs = oracle_mul(c, basis[i], oracle_mul(c, basis[j], basis[k], p), p)
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
    # the cube has no identity, which a validated presentation would refuse
    # first: the check runs on an unvalidated one
    bare = Algebra(p, sc, identity=np.ones(n, dtype=np.int64), validate=False)
    with pytest.raises(NotAssociative) as info:
        bare._check_associativity()
    assert info.value.witness == want


def spy_product_sizes(monkeypatch):
    """Record the entries of every matmul_mod product."""
    sizes, real = [], linalg.matmul_mod

    def spy(A, B, p):
        C = real(A, B, p)
        sizes.append(C.size)
        return C

    monkeypatch.setattr(linalg, "matmul_mod", spy)
    return sizes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", [1, 2, 4, 9, 18], ids=lambda b: f"{b}n^2")
def test_blocked_nucleus_test_names_the_same_first_triple(
        monkeypatch, seed, budget):
    # M_3(F_7) with a few constants corrupted fails at many (j, k) of its
    # first failing row.  A budget below n^3 = 9 n^2 entries takes one row
    # and runs of budget k's (one k and uneven runs included), n^3 and
    # more take whole rows; every product stays within the budget
    rng = np.random.default_rng(seed)
    sc = np.array(matrix_algebra(7, 3).algebra.sc)
    n = len(sc)
    for _ in range(3):
        sc[tuple(rng.integers(0, n, 3))] += rng.integers(1, 7)
    sc %= 7
    want = oracle_first_failure(sc.tolist(), 7)
    assert want is not None
    monkeypatch.setattr(algebra, "_CHECK_ENTRIES", budget * n * n)
    bare = Algebra(7, sc, identity=np.ones(n, dtype=np.int64), validate=False)
    sizes = spy_product_sizes(monkeypatch)
    with pytest.raises(NotAssociative) as info:
        bare._check_associativity()
    assert info.value.witness == want
    assert max(sizes) <= budget * n * n


def test_a_reduced_cube_is_kept_read_only():
    # no copy is made, so a later write to the caller's array must fail
    # rather than leave the table's float copies out of step
    sc = np.array(m2().sc)
    A = make_presentation(7, sc)
    assert A.sc is sc
    with pytest.raises(ValueError):
        sc[0, 0, 0] = 1
    # an unreduced cube is copied and reduced, and the caller's stays writable
    raw = np.array(m2().sc) + 7
    B = make_presentation(7, raw)
    assert B.sc is not raw and B.sc.tolist() == A.sc.tolist()
    raw[0, 0, 0] = 0


def test_the_identity_is_kept_read_only():
    # like sc, so an algebra's constants and identity cannot change under a
    # verdict kept for it; the declared identity is a copy, and the
    # caller's stays writable
    declared = np.array(m2().one)
    for A in (make_presentation(7, m2().sc), make_presentation(7, m2().sc,
                                                               declared)):
        with pytest.raises(ValueError):
            A.one[0] = 0
    declared[0] = 0


def test_associativity_check_memory_is_cubic():
    # dim 64: one n^4 int64 array alone would be 128 MiB, so the nucleus
    # test of every basis row must run a block of rows at a time
    bare = Algebra(97, matrix_algebra(97, 8).algebra.sc, validate=False)
    tracemalloc.start()
    try:
        bare._check_associativity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_certificate_memory_is_cubic():
    # the constructor leaves associativity pending; make_presentation's
    # certificate holds n^3-entry products, never an n^4 one
    sc = matrix_algebra(97, 8).algebra.sc.copy()
    tracemalloc.start()
    try:
        A = make_presentation(97, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not A._pending
    assert peak < 48 * 2**20


def corrupted_m2(p=7, n=2):
    """M_n(F_p) with E12 E21 = 2 E11: still unital, no longer associative."""
    sc = np.array(matrix_algebra(p, n).algebra.sc)
    sc[1, n, 0] = (sc[1, n, 0] + 1) % p
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
    # span of 1, so every draw is accepted, the cap (6 at dim 9) runs out,
    # and the blocked check has the last word
    p, sc = 7, corrupted_m2(n=3)
    want = oracle_first_failure(sc.tolist(), p)
    assert want is not None
    assert Algebra(p, sc, validate=False).one.tolist() == np.eye(3).ravel().tolist()
    monkeypatch.setattr(
        Algebra, "random_vec", lambda self, rng: self.one * rng.randrange(p) % p
    )
    calls = spy_blocked_check(monkeypatch)
    draws = count_draws(monkeypatch)
    with pytest.raises(NotAssociative) as info:
        make_presentation(p, sc)
    assert calls == [9] and len(draws) == 6
    assert info.value.witness == want


def test_element_outside_the_nucleus_hands_over_the_first_witness(monkeypatch):
    p, sc = 7, corrupted_m2(n=3)
    calls = spy_blocked_check(monkeypatch)
    draws = count_draws(monkeypatch)
    with pytest.raises(NotAssociative) as info:
        make_presentation(p, sc)
    assert calls == [9] and draws
    assert info.value.witness == oracle_first_failure(sc.tolist(), p)


def test_nucleus_failure_without_a_witness_is_an_invariant_violation(monkeypatch):
    # corrupted M_3(F_7), dim 9, is above the draw cap of 6, so the closure
    # is drawn and its rows are tested
    monkeypatch.setattr(Algebra, "_check_associativity", lambda self: None)
    draws = count_draws(monkeypatch)
    with pytest.raises(InternalInvariantViolation):
        make_presentation(7, corrupted_m2(n=3))
    assert draws


def test_several_nucleus_generators_certify_without_the_blocked_check(monkeypatch):
    # one element of F_3^7 has at most 3 distinct coordinates, so it cannot
    # generate: the certificate needs a second draw (7 is above the cap, 6)
    def blocked(self):
        raise AssertionError("the blocked check ran")

    monkeypatch.setattr(Algebra, "_check_associativity", blocked)
    draws = count_draws(monkeypatch)
    A = make_presentation(3, diagonal_cube(7))
    assert A.one.tolist() == [1] * 7
    assert len(draws) >= 2


def test_exhausted_draw_cap_falls_back_and_accepts(monkeypatch):
    # F_3^7: the cap is 2 ceil(log_3 7) + 2 = 6 draws; multiples of 1 lie in
    # the left nucleus but generate only the span of 1, so every draw is
    # spent and the blocked check decides
    monkeypatch.setattr(
        Algebra, "random_vec", lambda self, rng: self.one * rng.randrange(3) % 3
    )
    calls = spy_blocked_check(monkeypatch)
    draws = count_draws(monkeypatch)
    A = make_presentation(3, diagonal_cube(7))
    assert calls == [7] and len(draws) == 6
    assert A.one.tolist() == [1] * 7


@pytest.mark.parametrize("p", [3, 5])
def test_small_prime_products_certify_without_the_blocked_check(monkeypatch, p):
    # F_p^k needs random elements separating all k coordinates; the cap of
    # 2 ceil(log_p k) + 2 draws leaves room for that at every k here, and
    # every k from 7 on is above it (at p = 5, k = 6 is not)
    calls = spy_blocked_check(monkeypatch)
    for k in range(7, 40):
        assert len(make_presentation(p, diagonal_cube(k))._generators) > 0
    assert calls == []


def cyclic_cube(m):
    """F_p[C_m] on the group basis: b_i b_j = b_{i+j mod m}."""
    sc = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        sc[i, range(m), (i + np.arange(m)) % m] = 1
    return sc


# the generators the certificate accepts on scrambled
# build_planted([(4, 1), (4, 1), (3, 2)], 97) (scramble seed 1), pinned when
# the span of 1 was closed under each accepted draw on its own
PLANTED_GENERATORS = [
    [49, 53, 5, 33, 65, 62, 51, 38, 61, 45, 74, 27, 64, 17, 36, 17, 96, 12,
     79, 32, 68, 90, 77, 18, 39, 12, 93, 9, 87, 42, 60, 71, 12, 45, 55, 40,
     78, 81, 26, 70, 61, 56, 66, 33, 7, 70, 1, 11, 92, 51],
    [90, 85, 80, 0, 78, 63, 42, 31, 93, 41, 90, 8, 24, 72, 28, 30, 18, 69,
     57, 11, 10, 40, 65, 62, 13, 38, 70, 37, 90, 15, 70, 42, 69, 26, 77, 70,
     75, 36, 56, 11, 76, 49, 40, 73, 30, 37, 23, 24, 23, 4],
]


def test_certificate_closes_its_first_two_generators_together(monkeypatch):
    # closing the span under g1 alone and then under g2 took 18 folds here
    # (one of them seeding the span of 1); under both at once, level by
    # level, it takes at most half that, and the same two draws conclude
    A, _ = scramble(build_planted([(4, 1), (4, 1), (3, 2)], 97).algebra, seed=1)
    assert A.dim == 50
    folds, inside = [], []
    extend, certify = linalg.extend_rref, Algebra._certify_associativity

    def counted_extend(*args):
        if inside:
            folds.append(1)
        return extend(*args)

    def counted_certify(self):
        inside.append(1)
        try:
            return certify(self)
        finally:
            inside.clear()

    monkeypatch.setattr(linalg, "extend_rref", counted_extend)
    monkeypatch.setattr(Algebra, "_certify_associativity", counted_certify)
    calls = spy_blocked_check(monkeypatch)
    B = make_presentation(97, A.sc, identity=A.one)
    assert calls == []
    assert 0 < len(folds) <= 18 // 2
    assert B._generators.tolist() == PLANTED_GENERATORS


@pytest.mark.parametrize("p, m", [(3, 9), (97, 10)])
def test_one_generator_algebra_closes_under_its_first_draw(monkeypatch, p, m):
    # F_p[C_m] is commutative, so the span of 1 is closed under g1 at once
    # and g1, which generates it, concludes alone: no second nucleus test
    calls = spy_blocked_check(monkeypatch)
    A, _ = scramble(Algebra(p, cyclic_cube(m), validate=False), seed=1)
    B = make_presentation(p, A.sc, identity=A.one)
    assert calls == [] and len(B._generators) == 1
    bare = Algebra(p, B.sc, identity=B.one, validate=False)
    assert B.center_basis().tolist() == bare.center_basis().tolist()


@pytest.mark.parametrize("identity, error", [
    (None, NoIdentity), ([0, 1, 0, 0], NoIdentity), ([1, 0, 0], InvalidDocument),
], ids=["missing", "wrong", "wrong-length"])
def test_identity_errors_come_before_any_associativity_check(monkeypatch,
                                                             identity, error):
    # no identity at all, a wrong one, and one of the wrong length, on a
    # cube that is not associative either: the identity error is raised at
    # once, and the blocked check, O(n^5) in practice, never runs
    p, sc = 7, corrupted_m2()
    if identity is None:
        sc[0, 0, 0] = 0  # E11 E11 = 0 as well
    assert oracle_first_failure(sc.tolist(), p) is not None
    calls = spy_blocked_check(monkeypatch)
    with pytest.raises(error):
        Algebra(p, sc, identity=identity)
    assert calls == []


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


@pytest.mark.parametrize("p", [97, 2**31 - 1])
def test_solved_identity_is_the_declared_one(p):
    # an identity is unique, so solving must find the generator's declared one
    for A in (c3_algebra(p), m2(p),
              scramble(build_planted([(2, 1), (1, 2), (3, 1)], p).algebra, seed=3)[0]):
        solved = Algebra(p, A.sc)
        assert solved.one.tolist() == A.one.tolist()


def left_identities_cube(n):
    """b_i * b_j = b_j: every basis vector is a left identity."""
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[:, np.arange(n), np.arange(n)] = 1
    return sc


def upper_row_cube():
    """span(E11, E12) in M_2: E11 is a left identity, E12 * E11 = 0."""
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = sc[0, 1, 1] = 1
    return sc


@pytest.mark.parametrize("p", [97, 2**31 - 1])
@pytest.mark.parametrize("sc, one", [
    (left_identities_cube(3), [1, 0, 0]),
    (left_identities_cube(3).transpose(1, 0, 2), [1, 0, 0]),  # b_i * b_j = b_i
    (upper_row_cube(), [1, 0]),
])
def test_one_sided_identities_are_no_identity(p, sc, one):
    # all three are associative, with a one-sided identity but no two-sided one
    assert oracle_associative(sc.tolist(), p)
    with pytest.raises(NoIdentity):
        Algebra(p, sc)
    with pytest.raises(NoIdentity):
        Algebra(p, sc, identity=one)


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


def test_products_at_the_largest_prime_match_oracle(monkeypatch):
    # scrambled entries fill [0, p), so on BLAS every product takes the
    # limb path; the same products run once on the int64 kernel
    p = 2**31 - 1
    for macs in (2**62, 0):
        monkeypatch.setattr(linalg, "_SMALL_MACS", macs)
        A, _ = scramble(group_algebra(cayley_fixture("S3"), p), seed=4)
        A.require_associative()
        sc = A.sc.tolist()
        rng = np.random.default_rng(2)
        X = rng.integers(0, p, (3, A.dim))
        Y = rng.integers(0, p, (2, A.dim))
        for _ in range(2):  # on BLAS the second round reads the cached copies
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
        if macs:  # the int64 kernel makes no float copy of the table
            assert not A._ltable._parts
        else:
            # its two limbs as a right operand, and its entries whole as
            # the left operand of the associativity certificate
            assert set(A._ltable._parts) == {False, True}
            assert len(A._ltable.parts(True)) == 2


def oracle_pair_products(sc, M, lo, hi, p):
    """Rows (i, j) for lo <= i < hi: b_i b_j times the matrix M, in ints."""
    n = len(sc)
    basis = [[int(t == j) for t in range(n)] for j in range(n)]
    return [[sum(c * m for c, m in zip(oracle_mul(sc, basis[i], basis[j], p), col)) % p
             for col in zip(*M)]
            for i in range(lo, hi) for j in range(n)]


@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
@pytest.mark.parametrize("macs", [2**62, 0], ids=["int64", "blas"])
def test_table_methods_match_the_oracle(monkeypatch, p, macs):
    # scrambled F_p[S3] (dim 6), whose entries fill [0, p): left and right
    # of one row and of several, and pair_products mapped by a matrix and
    # by a stack, over every i and over a part of them
    monkeypatch.setattr(linalg, "_SMALL_MACS", macs)
    A, _ = scramble(group_algebra(cayley_fixture("S3"), p), seed=4)
    sc, n = A.sc.tolist(), A.dim
    basis = [[int(t == j) for t in range(n)] for j in range(n)]
    rng = np.random.default_rng(p % 1000)
    for X in (rng.integers(0, p, (1, n)), rng.integers(0, p, (3, n))):
        left, right = A.left(X), A.right(X)
        assert left.shape == (len(X), n, n) and right.shape == (n, len(X), n)
        for i, x in enumerate(X.tolist()):
            for j in range(n):
                assert left[i, j].tolist() == oracle_mul(sc, x, basis[j], p)
                assert right[j, i].tolist() == oracle_mul(sc, basis[j], x, p)
    M, stack = rng.integers(0, p, (n, 2)), rng.integers(0, p, (3, n, 2))
    assert A.pair_products(M).tolist() == oracle_pair_products(sc, M.tolist(), 0, n, p)
    for lo, hi in ((0, n), (2, 5), (3, 4)):
        got = A.pair_products(M, lo, hi)
        assert got.tolist() == oracle_pair_products(sc, M.tolist(), lo, hi, p)
        got = A.pair_products(stack, lo, hi)
        assert got.shape == (3, (hi - lo) * n, 2)
        for s in range(3):
            assert got[s].tolist() == oracle_pair_products(
                sc, stack[s].tolist(), lo, hi, p)


def test_lmat_rmat_columns_are_products():
    A = m2()
    x = np.array([1, 2, 3, 4])
    L, R = A.lmat(x), A.rmat(x)
    for j in range(A.dim):
        e = np.eye(A.dim, dtype=int)[j]
        assert L[:, j].tolist() == A.mul_vec(x, e).tolist()
        assert R[:, j].tolist() == A.mul_vec(e, x).tolist()


def min_poly(A, x):
    return algebra.min_poly_of_powers(A.powers(x, A.one), A.p)


def test_min_poly_vec():
    A = c3_algebra()
    g = np.array([0, 1, 0])
    # g has order 3: minimal polynomial T^3 - 1
    assert min_poly(A, g) == [4, 0, 0, 1]


def test_min_poly_of_companion_matrix():
    # companion matrix of T^3 + 2T + 1 over F_5, as an element of M_3(F_5)
    C = np.array([[0, 0, -1], [1, 0, -2], [0, 1, 0]]) % 5
    A = matrix_algebra(5, 3).algebra
    assert min_poly(A, C.reshape(-1)) == [1, 2, 0, 1]


def test_min_poly_of_identity_and_zero():
    A = matrix_algebra(7, 3).algebra
    assert min_poly(A, A.one) == [6, 1]  # T - 1
    assert min_poly(A, np.zeros(A.dim, dtype=np.int64)) == [0, 1]


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_powers_match_repeated_products(p):
    A, _ = scramble(matrix_algebra(p, 2).algebra, seed=2)
    x = A.random_vec(random.Random(p))
    want = [A.one]
    for _ in range(A.dim):
        want.append(A.mul_vec(want[-1], x))
    assert A.powers(x, A.one).tolist() == np.array(want).tolist()
    # a bound top gives the first top + 1 rows, on both sides of each doubling
    for top in range(1, A.dim + 1):
        assert A.powers(x, A.one, top).tolist() == np.array(want[: top + 1]).tolist()


def test_powers_in_a_corner_start_at_its_identity():
    # x = e*y*e in the corner e*A*e, e = E11 + E22 of M_3(F_7): the zeroth
    # power is e, and the first relation is the minimal polynomial in the
    # corner, of degree at most 2 (in A it would also kill E33)
    A = matrix_algebra(7, 3).algebra
    e = np.diag([1, 1, 0]).reshape(-1)
    y = np.array([[2, 1, 5], [3, 0, 4], [6, 6, 1]]).reshape(-1)
    x = A.mul_vec(A.mul_vec(e, y), e)
    K = A.powers(x, e)
    assert K[0].tolist() == e.tolist() and K[1].tolist() == x.tolist()
    assert K[2].tolist() == A.mul_vec(x, x).tolist()
    q = algebra.min_poly_of_powers(K, 7)
    assert len(q) == 3  # T^2 - 2T - 3: trace 2, determinant -3 of [[2,1],[3,0]]
    assert q == [4, 5, 1]


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_min_poly_of_independent_powers_is_an_internal_error(p):
    # powers cut below the degree of the minimal polynomial hold no relation:
    # a typed error, which hands the optimistic search to the radical chain
    C = np.array([[0, 0, p - 1], [1, 0, p - 2], [0, 1, 0]])  # T^3 + 2T + 1
    A = matrix_algebra(p, 3).algebra
    x = C.reshape(-1)
    assert len(algebra.min_poly_of_powers(A.powers(x, A.one), p)) == 4
    for top in (1, 2):
        K = A.powers(x, A.one, top)
        assert linalg.rank(K, p) == top + 1
        with pytest.raises(InternalInvariantViolation, match="independent"):
            algebra.min_poly_of_powers(K, p)
    # and so do the independent rows of the identity
    with pytest.raises(InternalInvariantViolation):
        algebra.min_poly_of_powers(np.eye(3, dtype=np.int64), p)


@functools.lru_cache(maxsize=None)
def _min_poly_algebra(kind, p):
    if kind == "S3":
        return group_algebra(cayley_fixture("S3"), p)
    return matrix_algebra(p, int(kind[1:])).algebra


@given(st.sampled_from(["M1", "M2", "M3", "S3"]),
       st.sampled_from([5, 13, 2**31 - 1]),
       st.sampled_from([0, 1, 3]),  # how many coordinates stay zero
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_min_poly_annihilates(kind, p, zeros, rng):
    # oracle without powers(): q(x) = 0 by repeated mul_vec, q monic, and
    # 1, x, ..., x^(deg q - 1) independent
    A = _min_poly_algebra(kind, p)
    x = A.random_vec(rng)
    x[rng.sample(range(A.dim), min(zeros, A.dim - 1))] = 0
    q = min_poly(A, x)
    assert q[-1] == 1 and len(q) <= A.dim + 1
    power, acc, lower = A.one, np.zeros(A.dim, dtype=np.int64), []
    for c in q:
        acc = (acc + int(c) * power) % p
        lower.append(power)
        power = A.mul_vec(power, x)
    assert not acc.any()
    assert linalg.rank(np.array(lower[:-1]), p) == len(q) - 1


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


def basis_centre(A):
    """The centre from the dim^2 x dim system of the basis vectors: row
    (j, k), column i is coordinate k of b_i*b_j - b_j*b_i."""
    n, p = A.dim, A.p
    system = (A.sc.transpose(1, 2, 0) - A.sc.transpose(0, 2, 1)) % p
    return linalg.kernel(system.reshape(n * n, n), p).tolist()


def spy_kernel_shapes(monkeypatch):
    shapes = []
    kernel = linalg.kernel

    def spy(M, p):
        shapes.append(M.shape)
        return kernel(M, p)

    monkeypatch.setattr(linalg, "kernel", spy)
    return shapes


def spy_closures(monkeypatch):
    calls = []
    closure = Algebra._closure

    def spy(self):
        calls.append(self.dim)
        return closure(self)

    monkeypatch.setattr(Algebra, "_closure", spy)
    return calls


@pytest.mark.parametrize("build", [
    lambda: scramble(group_algebra(cayley_fixture("S3"), 5), seed=2)[0],
    lambda: scramble(group_algebra(cayley_fixture("Q8"), 3), seed=1)[0],
    lambda: scramble(build_planted([(2, 1), (1, 2), (3, 1)], 7).algebra, seed=2)[0],
    lambda: scramble(matrix_algebra(3, 4).algebra, seed=1)[0],
], ids=["S3 p=5", "Q8 p=3", "planted p=7", "M_4(F_3)"])
def test_center_from_the_certificate_generators(monkeypatch, build):
    # on a pending algebra above the draw cap the search reads the centre
    # off the centraliser of two draws, tested against the basis, with no
    # closure and no nucleus test: the same canonical basis as the
    # dim^2 x dim system of the basis vectors.  center_basis proves
    # associativity first, and then takes the certificate's generators.
    # S3 at p = 5 (dim 6) is no larger than the cap of 6: nothing is
    # drawn, and the centre solves the basis vectors' own system
    A = build()
    n = A.dim
    want = basis_centre(A)
    certified = []
    certify = Algebra._certify_associativity
    monkeypatch.setattr(Algebra, "_certify_associativity",
                        lambda self: certified.append(self.dim) or certify(self))
    closures = spy_closures(monkeypatch)
    shapes = spy_kernel_shapes(monkeypatch)
    assert A._pending
    assert A._center_basis().tolist() == want
    assert certified == [] and closures == [] and A._pending
    assert not hasattr(A, "_generators")
    assert shapes == [(n * n if n <= A._draw_cap() else 2 * n, n)]
    assert A.center_basis().tolist() == want
    assert certified == [n] and not A._pending
    G = A._generators
    assert G is None if n <= 6 else 0 < len(G) < n
    assert shapes[1:] == [((n if G is None else len(G)) * n, n)]


def diagonal_draw(self, rng):
    """A random diagonal matrix of M_3, basis E[i,j] in row-major order."""
    x = np.zeros(9, dtype=np.int64)
    x[[0, 4, 8]] = [rng.randrange(3) for _ in range(3)]
    return x


@pytest.mark.parametrize("draw", [
    lambda self, rng: self.one * rng.randrange(3) % 3,
    diagonal_draw,
], ids=["multiples of 1", "diagonal"])
def test_center_when_every_draw_commutes_with_too_much(monkeypatch, draw):
    # multiples of 1 commute with everything, and diagonal matrices with
    # every diagonal one, so each centraliser of M_3(F_3) (dim 9, above the
    # cap of 6) is A, or holds the diagonal, and fails the test: exactly
    # cap draws, then the basis vectors' system, which gives the scalars
    monkeypatch.setattr(Algebra, "random_vec", draw)
    draws = count_draws(monkeypatch)
    shapes = spy_kernel_shapes(monkeypatch)
    A = matrix_algebra(3, 3).algebra
    assert A._pending and A._draw_cap() == 6
    assert A._center_basis().tolist() == [np.eye(3, dtype=int).ravel().tolist()]
    assert len(draws) == 6
    assert shapes == [(k * 9, 9) for k in range(2, 7)] + [(81, 9)]
    assert A._pending


def test_center_of_a_commutative_algebra_above_the_cap(monkeypatch):
    # scrambled F_13[C4] (+) F_13[C3] (+) F_13[C2], dim 9 above the cap of 4
    # at p = 13: the first two draws' centraliser is all of A, which the
    # cube's commutativity test accepts
    parts = [group_algebra(cayley_fixture(g), 13) for g in ("C4", "C3", "C2")]
    A, _ = scramble(direct_sum(parts), seed=1)
    closures = spy_closures(monkeypatch)
    shapes = spy_kernel_shapes(monkeypatch)
    assert A.dim == 9 and A._draw_cap() == 4 and A.is_commutative()
    assert A._center_basis().tolist() == np.eye(9, dtype=int).tolist()
    assert shapes == [(18, 9)] and closures == [] and A._pending


def test_center_after_the_blocked_check_uses_the_basis(monkeypatch):
    # multiples of 1 are accepted but generate only the span of 1, so the
    # blocked check decides and no generators are kept: the centre of
    # M_3(F_3) (dim 9, above the cap of 6) is still only the scalars
    monkeypatch.setattr(
        Algebra, "random_vec", lambda self, rng: self.one * rng.randrange(3) % 3
    )
    calls = spy_blocked_check(monkeypatch)
    draws = count_draws(monkeypatch)
    A = matrix_algebra(3, 3).algebra
    A.require_associative()
    assert calls == [9] and len(draws) == 6
    assert getattr(A, "_generators", None) is None
    assert A.center_basis().tolist() == [np.eye(3, dtype=int).ravel().tolist()]


def test_frobenius_fixed_space_counts_blocks():
    # over F_5, C3 splits into 2 blocks; over F_7 into 3
    for p, want in [(5, 2), (7, 3)]:
        A = c3_algebra(p)
        F = A.frobenius_matrix()
        eye = np.eye(A.dim, dtype=int)
        assert len(linalg.kernel((F - eye) % p, p)) == want
        assert len(A.frobenius_fixed_space()) == want
    # F_3[C3] = F_3[x]/(x - 1)^3 has nilpotents, so x -> x^3 drops rank
    assert c3_algebra(3).frobenius_fixed_space() is None


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
def test_frobenius_matrix_matches_per_vector_powers(p):
    # one-dimensional presentations c000 = c with any identity u, also the
    # zero algebra, non-idempotent identities and u*c != 1
    r = random.Random(p).randrange(2, p)
    algebras = [scramble(group_algebra(cayley_fixture("C4"), p), seed=3)[0]]
    algebras += [Algebra(p, [[[c]]], identity=[u], validate=False)
                 for c in (0, 1, r) for u in (0, 1, r)]
    for A in algebras:
        F = A.frobenius_matrix()
        for i, b in enumerate(np.eye(A.dim, dtype=np.int64)):
            # b^p by square-and-multiply, one mul_vec at a time
            acc, base, k = A.one, b, p
            while k:
                if k & 1:
                    acc = A.mul_vec(acc, base)
                base, k = A.mul_vec(base, base), k >> 1
            assert F[:, i].tolist() == acc.tolist(), (A.sc.tolist(), A.one)


# -- corners and hom spaces --------------------------------------------------


def corner(A, e):
    """(rows, B): the canonical basis of e*A*e and the algebra it presents."""
    rows = hom_rows(A, e, e)
    return rows, A.subalgebra(rows, e)


def test_corner_of_e11():
    A = m2()
    e11 = np.array([1, 0, 0, 0])
    rows, B = corner(A, e11)
    assert B.dim == 1
    assert rows.tolist() == [[1, 0, 0, 0]]
    # the corner's identity is e11
    assert linalg.matmul_mod(B.one[None], rows, 7).tolist() == [e11.tolist()]
    # corner algebra is the ground field
    assert B.sc.tolist() == [[[1]]]


def test_corner_of_identity_is_whole_algebra():
    A = m2()
    rows, B = corner(A, A.one)
    assert B.dim == 4 and rows.tolist() == np.eye(4, dtype=int).tolist()


def test_corner_of_zero_is_zero_algebra():
    A = m2()
    rows, B = corner(A, np.zeros(4, dtype=np.int64))
    assert B.dim == 0 and rows.shape == (0, 4)


def test_hom_space_between_diagonal_idempotents():
    A = m2()
    e11 = np.array([1, 0, 0, 0])
    e22 = np.array([0, 0, 0, 1])
    # f A e with f = E11, e = E22 is spanned by E12
    H = hom_rows(A, e11, e22)
    assert H.tolist() == [[0, 1, 0, 0]]
    H2 = hom_rows(A, e22, e11)
    assert H2.tolist() == [[0, 0, 1, 0]]
    # e A e back to itself
    assert hom_rows(A, e11, e11).tolist() == [[1, 0, 0, 0]]


def test_subalgebra_round_trip():
    A = m2()
    rows, _ = corner(A, np.array([1, 0, 0, 0]))
    local = linalg.coordinates(rows, [[3, 0, 0, 0]], 7)
    assert local.tolist() == [[3]]
    assert linalg.matmul_mod(local, rows, 7).tolist() == [[3, 0, 0, 0]]
    assert linalg.coordinates(rows, [[0, 1, 0, 0]], 7) is None  # outside


def test_subalgebra_presents_the_span_and_refuses_non_closed_rows():
    A = m2()
    # the diagonal matrices: F_7 x F_7, identity the whole one
    diag = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    D = A.subalgebra(diag, A.one)
    assert D.is_commutative() and D.one.tolist() == [1, 1]
    assert D.sc.tolist() == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    with pytest.raises(EntryOutsideCorner):  # E12 * E21 = E11
        A.subalgebra(np.array([[0, 1, 0, 0], [0, 0, 1, 0]]), A.one)
    with pytest.raises(EntryOutsideCorner):  # the identity is outside
        A.subalgebra(diag[:1], A.one)


def test_subalgebras_and_matrix_rings_of_a_proved_algebra_start_pending():
    # no proof is copied from the algebra they come from: only
    # require_associative or a passing blocks.check proves one
    A = make_presentation(7, m2().sc)
    assert not A._pending
    diag = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    assert A.subalgebra(diag, A.one)._pending
    assert algebra.matrix_ring(A, 2)._pending


# -- documents ----------------------------------------------------------------


def test_doc_round_trip():
    A = group_algebra(cayley_fixture("S3"), 5)
    doc = A.to_doc()
    assert doc["p"] == 5 and doc["dim"] == 6
    B = from_doc(doc)
    assert B.p == A.p and np.array_equal(B.sc, A.sc)


def test_from_doc_solves_an_undeclared_identity():
    A, _ = scramble(matrix_algebra(97, 7).algebra, seed=1)
    doc = A.to_doc()
    del doc["identity"]
    assert from_doc(doc).one.tolist() == A.one.tolist()


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


def doc_array_oracle(x, shape, what, error=InvalidDocument):
    """doc_array as it was before its typed pass: numpy reads every input,
    then a second scan of the leaves looks for booleans."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):
        raise error(f"{what} is not an integer array") from None
    if arr.dtype.kind != "i" and arr.size:
        raise error(f"{what} must hold integers, not {arr.dtype}")
    if arr.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, arr.shape)
    ):
        want = tuple("*" if n is None else n for n in shape)
        raise error(f"{what} has shape {arr.shape}, expected {want}")
    if arr.ndim and arr.size and not isinstance(x, np.ndarray):
        leaves = x
        for _ in range(arr.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
            raise error(f"{what} must hold integers, not booleans")
    return arr.astype(np.int64, copy=False)


INJECTED = [True, False, 1.5, "1", None, np.int64(3), 2**63, -(2**63) - 1]


@st.composite
def doc_fields(draw):
    """(x, shape): a rectangular nested list of depth 1-3 with an injected
    leaf, a ragged row at some depth, an empty level, or none of these; and
    the shape asked for, right or wrong."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    leaf = st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 100)

    def build(level):
        if level == len(dims):
            return draw(leaf)
        return [build(level + 1) for _ in range(dims[level])]

    x = build(0)
    # a list at a drawn depth, reached by drawn indices
    node, level = x, 0
    for _ in range(draw(st.integers(0, len(dims) - 1))):
        if not node:
            break
        node, level = node[draw(st.integers(0, len(node) - 1))], level + 1
    spot = draw(st.integers(0, max(0, len(node) - 1)))
    kind = draw(st.sampled_from(["clean", "inject", "ragged", "empty"]))
    if kind == "inject":
        while level < len(dims) - 1 and node:
            node, level = node[spot % len(node)], level + 1
        bad = draw(st.sampled_from(INJECTED))
        if node:
            node[spot % len(node)] = bad
        else:
            node.append(bad)
    elif kind == "ragged":
        how = draw(st.sampled_from(["drop", "add", "deepen"]))
        if how == "drop" and node:
            node.pop()
        elif how == "deepen" and node:
            # a leaf where a row should be, or a row where a leaf should be
            node[spot] = [node[spot]] if level == len(dims) - 1 else draw(leaf)
        else:
            node.append(node[0][:] if node and isinstance(node[0], list)
                        else draw(leaf))
    elif kind == "empty":
        node.clear()
    shape = draw(st.sampled_from([
        (None,) * len(dims),
        tuple(dims),
        (None,) * (len(dims) + 1),
        (None,) * max(1, len(dims) - 1),
        tuple(dims[:-1]) + (dims[-1] + 1,),
    ]))
    return x, shape


def conversion(f, x, shape, error):
    """The array f makes of x, or the class and message of what it raises."""
    try:
        arr = f(x, shape, "field", error)
    except (InvalidDocument, ShapeMismatch) as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tolist()


@given(doc_fields())
@example(([[2**63, -1]], (None, None)))  # numpy reads float64
@example(([[1, True]], (None, None, None)))  # the shape is refused first
@example(([[], []], (None, None, None)))  # an empty level stops numpy
@example(([[[]]], (None, None, None)))
@example(([[1, 2], (3, 4)], (None, None)))  # a tuple takes numpy's reading
@settings(max_examples=400, deadline=None)
def test_doc_array_matches_the_numpy_reading(case):
    # the typed pass gives the same array, or the same refusal in the same
    # words, under both error classes the callers pass
    x, shape = case
    for error in (InvalidDocument, ShapeMismatch):
        assert (conversion(algebra.doc_array, x, shape, error)
                == conversion(doc_array_oracle, x, shape, error))


def _read_cube(monkeypatch, cube):
    """doc_array's conversion of cube beside the oracle's, and whether the
    struct pass ran."""
    calls = []
    convert = algebra._converted_rows
    monkeypatch.setattr(algebra, "_converted_rows",
                        lambda rows, dims: calls.append(1) or convert(rows, dims))
    got, want = (conversion(f, cube, (None,) * 3, InvalidDocument)
                 for f in (algebra.doc_array, doc_array_oracle))
    return got, want, bool(calls)


def _cube_with(values, dim, first_row):
    """A dim^3 list cube of drawn values whose first innermost row is given;
    its last row holds 0 and 1 at (dim-1, dim-1, 0) and (dim-1, dim-1, 1)."""
    rng = np.random.default_rng(dim)
    cube = rng.choice(values, (dim, dim, dim)).tolist()
    cube[0][0] = list(first_row)
    cube[-1][-1][:2] = [0, 1]
    return cube


# (value read, leaf): each is put in place of an entry that reads the value
LEAVES = [(1, True), (0, False), (3, 3.0), (5, "5"), (0, None), (2, 2**63),
          (4, np.int64(4)), (1, np.int64(1))]


@pytest.mark.parametrize("read, leaf", LEAVES,
                         ids=["true", "false", "float", "string", "null",
                              "past int64", "np.int64", "np.int64 one"])
@pytest.mark.parametrize("dense", [False, True], ids=["p97", "zero-one"])
def test_both_list_paths_match_the_numpy_reading(monkeypatch, dense, read, leaf):
    # dim 32 is two steps of the 0/1 check; the leaf goes in the second,
    # at an entry that reads its value, so only its JSON type differs
    dim = 32
    if dense:
        cube = _cube_with([0, 1, 2], dim, [i % 2 for i in range(dim)])
    else:
        cube = _cube_with(np.arange(97), dim, range(2, dim + 2))
    at = (dim - 1, dim // 2, 3)
    cube[at[0]][at[1]][at[2]] = read
    assert _read_cube(monkeypatch, cube)[0][0] == np.int64
    cube[at[0]][at[1]][at[2]] = leaf
    got, want, converted = _read_cube(monkeypatch, cube)
    assert converted is not dense
    assert got == want


@pytest.mark.parametrize("dense", [False, True], ids=["p97", "zero-one"])
def test_clean_cubes_take_their_path_and_read_exactly(monkeypatch, dense):
    dim = 32
    if dense:
        cube = _cube_with([0, 1, 2], dim, [i % 2 for i in range(dim)])
    else:
        cube = _cube_with([-(2**63), 2**63 - 1, 0, 1, 96],
                          dim, range(2, dim + 2))
    got, want, converted = _read_cube(monkeypatch, cube)
    assert converted is not dense
    assert got == want and got[2] == cube


def test_a_first_row_a_quarter_zeros_and_ones_takes_the_conversion(monkeypatch):
    dim = 8
    for zero_ones, converted in ((2, True), (3, False)):
        first = [0, 1, 0][:zero_ones] + [5] * (dim - zero_ones)
        cube = _cube_with(np.arange(97), dim, first)
        assert _read_cube(monkeypatch, cube)[2] is converted


def test_numpy_unsigned_leaves_read_by_the_chosen_path(monkeypatch):
    # JSON has no unsigned scalars; struct packs np.uint64 by its
    # value, where numpy reads it beside Python ints as float64 and refuses
    dim = 8
    sparse = _cube_with(np.arange(97), dim, range(2, dim + 2))
    dense = _cube_with([0, 1], dim, [1] * dim)
    for cube in (sparse, dense):
        cube[3][4][5] = np.uint64(7)
    got, want, converted = _read_cube(monkeypatch, sparse)
    assert converted and got[0] == np.int64 and got[2][3][4][5] == 7
    assert want == (InvalidDocument,
                    "field must hold integers, not float64")
    got, want, converted = _read_cube(monkeypatch, dense)
    assert not converted and got == want


# -- the packed cube ------------------------------------------------------------


def test_packed_dtype_is_the_smallest_width_for_p_minus_one():
    assert [algebra.packed_dtype(p) for p in (3, 97, 251, 257, 65521,
                                              65537, 2**31 - 1)] == \
        ["<u1", "<u1", "<u1", "<u2", "<u2", "<u4", "<u4"]


def packed_doc(p=97):
    A, _ = scramble(matrix_algebra(p, 2).algebra, seed=1)
    return A, json.loads(json.dumps(A.to_doc(packed=True)))


def test_packed_document_reads_as_the_list_document():
    A, doc = packed_doc()
    assert doc["structure_constants"]["dtype"] == "<u1"
    B = from_doc(doc)
    assert B.sc.dtype == np.int64 and B.sc.tolist() == A.sc.tolist()
    assert B.to_doc() == A.to_doc()


def _edit(doc, **fields):
    sc = {**doc["structure_constants"], **fields}
    return {**doc, "structure_constants": {k: v for k, v in sc.items()
                                           if v is not None}}


def _b64(values, dtype="<u1"):
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode()


@pytest.mark.parametrize("fields, named", [
    ({"order": "C"}, "unknown key 'order'"),
    ({"data": None}, "missing 'data'"),
    ({"encoding": "base85"}, "field 'encoding'"),
    ({"dtype": "<u2"}, "field 'dtype' must be '<u1'"),
    ({"dtype": "<i8"}, "field 'dtype' must be '<u1'"),
    ({"shape": [4, 4]}, "field 'shape'"),
    ({"shape": [4, 4, True]}, "field 'shape'"),
    ({"data": "AAAA*AAA"}, "field 'data' is not a base64 string"),
    ({"data": "AAA"}, "field 'data' is not a base64 string"),
    ({"data": 7}, "field 'data' is not a base64 string"),
    ({"data": _b64([0] * 63)}, "field 'data' holds 63 bytes, not the 64"),
    ({"data": _b64([0] * 65)}, "field 'data' holds 65 bytes, not the 64"),
    ({"data": _b64([0] * 9 + [97] + [0] * 54)},
     "field 'data' holds 97 at (0, 2, 1), not below p = 97"),
], ids=["unknown key", "missing key", "encoding", "wider dtype", "signed dtype",
        "shape length", "boolean shape", "bad character", "bad padding",
        "not a string", "short data", "long data", "entry at p"])
def test_packed_form_refusals_name_the_field(fields, named):
    _, doc = packed_doc()
    with pytest.raises(InvalidDocument) as info:
        from_doc(_edit(doc, **fields))
    assert str(info.value).startswith("structure constants: ")
    assert named in str(info.value)


def test_packed_width_follows_p():
    # <u2 at 65521, and a <u2 cube at 65537 is refused for its width
    A, doc = packed_doc(65521)
    assert doc["structure_constants"]["dtype"] == "<u2"
    assert from_doc(doc).sc.tolist() == A.sc.tolist()
    with pytest.raises(InvalidDocument, match="field 'dtype' must be '<u4'"):
        from_doc({**doc, "p": 65537})


def test_packed_form_needs_a_supported_modulus():
    _, doc = packed_doc()
    with pytest.raises(NotPrime):
        from_doc({**doc, "p": 99})
    with pytest.raises(UnsupportedCharacteristic):
        from_doc({**doc, "p": 2**61 - 1})


def test_packed_form_is_read_only_where_the_modulus_is_known():
    # report fields and a bare Algebra take lists only
    _, doc = packed_doc()
    with pytest.raises(InvalidDocument, match="must hold integers, not object"):
        algebra.doc_array(doc["structure_constants"], (None,) * 3, "cube")
