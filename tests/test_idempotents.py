"""Block idempotents from the centre, the one-branch descent, dual bases."""

import random

import numpy as np
import pytest

from wedderburn import (
    block_idempotents,
    build_planted,
    cayley_fixture,
    direct_sum,
    full_isomorphism,
    group_algebra,
    make_presentation,
    matrix_algebra,
    primitive_idempotent,
    require_semisimple,
    scramble,
    verify_isomorphism,
)
from wedderburn.blocks import dual_basis
from wedderburn.errors import (
    NotSemisimple,
    SplitIterationCapExceeded,
    WitnessSolveFailed,
)
from wedderburn.idempotents import _fixed_space


def corner(A, e):
    """Independently rebuild e*A*e as an algebra with identity e."""
    return A.subalgebra(A._hom_rows(e, e), e)


def is_field_corner(A, e):
    B = corner(A, e)
    return B.is_commutative() and _fixed_space(B).shape[0] == 1


def parts_of(res):
    """The primitive parts b[mu]*a[mu] of every block, in block order."""
    return np.concatenate([blk.units[np.arange(blk.n), np.arange(blk.n)]
                           for blk in res.blocks])


def check_decomposition(A, dec):
    """Structural oracle: orthogonal idempotents summing to one, all primitive."""
    total = np.zeros(A.dim, dtype=np.int64)
    for ec in dec:
        assert np.array_equal(A.mul_vec(ec, ec), ec)
        assert ec.any()
        total = (total + ec) % A.p
    assert total.tolist() == A.one.tolist()
    for i, e in enumerate(dec):
        for f in dec[i + 1 :]:
            assert not A.mul_vec(e, f).any()
            assert not A.mul_vec(f, e).any()
    for e in dec:
        assert is_field_corner(A, e)


def test_f5xf5_splits_into_the_two_factors():
    A = direct_sum([matrix_algebra(5, 1).algebra, matrix_algebra(5, 1).algebra])
    C, degrees = block_idempotents(A)
    assert sorted(C.tolist()) == [[0, 1], [1, 0]] and degrees == [1, 1]
    check_decomposition(A, C)


def test_m2f7_gives_two_equivalent_parts():
    A = matrix_algebra(7, 2).algebra
    C, degrees = block_idempotents(A)
    assert C.tolist() == [A.one.tolist()] and degrees == [1]
    e = primitive_idempotent(A, C[0], 1, random.Random(0))
    assert len(A._hom_rows(e, e)) == 1
    a, b = dual_basis(A, C[0], e, A._hom_rows(e, e))
    assert len(a) == len(b) == 2
    check_decomposition(A, A.products(b, a)[[0, 1], [0, 1]])
    # the connecting pair: a[1]*b[1] = e and b[1]*a[1] is the other part
    assert A.mul_vec(a[1], b[1]).tolist() == e.tolist()
    assert A.mul_vec(b[1], a[1]).tolist() == ((A.one - e) % 7).tolist()


def test_part_counts_on_group_algebras():
    # number of primitive parts = sum of n_i over the blocks
    for name, p, want in [("C3", 7, 3), ("C3", 5, 2), ("S3", 5, 4), ("C4", 5, 4)]:
        A = group_algebra(cayley_fixture(name), p)
        dec = parts_of(full_isomorphism(A, seed=0))
        assert len(dec) == want, (name, p)
        check_decomposition(A, dec)


def test_decomposition_deterministic_per_seed():
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=2)
    d1 = parts_of(full_isomorphism(A, seed=7))
    d2 = parts_of(full_isomorphism(A, seed=7))
    assert d1.tolist() == d2.tolist()
    # a different seed may find different idempotents but the same count
    d3 = parts_of(full_isomorphism(A, seed=8))
    assert len(d3) == len(d1)
    check_decomposition(A, d3)


def test_central_split_branch_is_seed_free():
    # commutative: every block is M_1(F_q), found from the centre alone, so
    # any two seeds give identical decompositions
    A = group_algebra(cayley_fixture("C4"), 5)
    d1 = parts_of(full_isomorphism(A, seed=1))
    d2 = parts_of(full_isomorphism(A, seed=999))
    assert d1.tolist() == d2.tolist()
    assert sorted(d1.tolist()) == sorted(block_idempotents(A)[0].tolist())


def _radical_sc():
    """Upper triangular 2 x 2 matrices: radical spanned by b_1 = E12."""
    sc = np.zeros((3, 3, 3), dtype=int)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 2, 1] = 1
    sc[2, 2, 2] = 1
    return sc


def test_rejects_non_semisimple_input():
    A = make_presentation(5, _radical_sc())
    with pytest.raises(NotSemisimple):
        full_isomorphism(A, seed=0)


def test_block_idempotents_certify_a_fresh_algebra_itself():
    A = make_presentation(5, _radical_sc())  # fresh: no radical computed yet
    with pytest.raises(NotSemisimple):
        block_idempotents(A)
    A = matrix_algebra(7, 2).algebra  # fresh and semisimple: one block
    C, degrees = block_idempotents(A)
    assert C.tolist() == [A.one.tolist()] and degrees == [1]


def test_primitive_idempotent_is_c_on_a_field_and_splits_m2():
    F = matrix_algebra(5, 1, [2, 0, 1]).algebra  # F_25 = F_5[T]/(T^2 + 2)
    require_semisimple(F)
    assert is_field_corner(F, F.one)
    rng = random.Random(0)
    assert primitive_idempotent(F, F.one, 2, rng).tolist() == F.one.tolist()
    assert rng.random() == random.Random(0).random()  # no draw was made
    A = matrix_algebra(7, 2).algebra
    require_semisimple(A)
    e = primitive_idempotent(A, A.one, 1, random.Random(0))
    assert e.any() and A.mul_vec(e, e).tolist() == e.tolist()
    assert e.tolist() != A.one.tolist() and is_field_corner(A, e)


def test_split_cap_exceeded():
    P = build_planted([(2, 1), (1, 2)], 7)
    A, _ = scramble(P.algebra, seed=5)
    with pytest.raises(SplitIterationCapExceeded):
        full_isomorphism(A, seed=0, cap=1)
    # the default cap succeeds on the same input
    assert len(parts_of(full_isomorphism(A, seed=0))) == 3


# -- the centre: blocks, including more blocks than field elements -----------


@pytest.mark.parametrize("build, shapes", [
    # F_3[Q8]: four linear characters and M_2(F_3), five blocks over F_3
    (lambda: scramble(group_algebra(cayley_fixture("Q8"), 3), seed=1)[0],
     [(1, 1)] * 4 + [(2, 1)]),
    # six blocks over F_5
    (lambda: scramble(build_planted([(1, 1)] * 3 + [(2, 1)] * 2 + [(3, 1)],
                                    5).algebra, seed=2)[0],
     [(1, 1)] * 3 + [(2, 1)] * 2 + [(3, 1)]),
    # blocks with a centre of degree d > 1, at p = 3
    (lambda: scramble(build_planted([(2, 2), (1, 3), (3, 1)], 3).algebra,
                      seed=4)[0],
     [(1, 3), (2, 2), (3, 1)]),
])
def test_block_idempotents_separate_every_block(build, shapes):
    A = build()
    C, degrees = block_idempotents(A)
    assert sorted(degrees) == sorted(d for _, d in shapes)
    assert ((C.sum(axis=0)) % A.p).tolist() == A.one.tolist()
    for i, c in enumerate(C):
        assert np.array_equal(A.mul_vec(c, c), c) and c.any()
        assert np.array_equal(A.lmat(c), A.rmat(c))  # central
        for f in C[i + 1 :]:
            assert not A.mul_vec(c, f).any()
        # c*A*c = M_n(F_{p^d}) has dimension n^2 d and a centre of dimension d
        n2d = len(A._hom_rows(c, c))
        assert (int(round((n2d // degrees[i]) ** 0.5)), degrees[i]) in shapes
        assert len(corner(A, c).center_basis()) == degrees[i]
    res = full_isomorphism(A, seed=0)
    assert sorted((b.n, b.D.degree) for b in res.blocks) == sorted(shapes)
    assert verify_isomorphism(A, res).passed
    assert sorted(b.c.tolist() for b in res.blocks) == sorted(C.tolist())


# -- the descent: one branch, down to the entry field -------------------------


@pytest.mark.parametrize("spec, p", [
    ([(4, 1)], 3),  # p = 3: many draws have no linear factor
    ([(3, 2)], 3),  # d > 1: the corner stops at F_9
    ([(2, 3)], 7),
    ([(5, 1)], 2**31 - 1),
])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_primitive_idempotent_reaches_the_entry_field(spec, p, seed):
    A, _ = scramble(build_planted(spec, p).algebra, seed=seed)
    (c,), (d,) = block_idempotents(A)
    assert d == spec[0][1]
    e = primitive_idempotent(A, c, d, random.Random(seed))
    assert np.array_equal(A.mul_vec(e, e), e)
    assert np.array_equal(A.mul_vec(c, e), e)  # e <= c
    assert len(A._hom_rows(e, e)) == d and is_field_corner(A, e)


def test_m1_block_keeps_e_equal_to_c():
    A, _ = scramble(build_planted([(1, 2), (1, 1), (2, 1)], 5).algebra, seed=1)
    res = full_isomorphism(A, seed=0)
    for blk in res.blocks:
        if blk.n == 1:
            assert blk.rep.tolist() == blk.c.tolist()
            assert blk.a.tolist() == blk.b.tolist() == [blk.c.tolist()]


# -- dual bases: the connecting elements ---------------------------------------


def test_witness_example_elementary_matrices():
    A = matrix_algebra(7, 2).algebra
    e11 = np.array([1, 0, 0, 0])
    a, b = dual_basis(A, A.one, e11, A._hom_rows(e11, e11))
    # b spans A*E11 = span(E11, E21); a is its dual basis in E11*A
    assert b.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert a.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    e22 = np.array([0, 0, 0, 1])
    assert A.mul_vec(a[1], b[1]).tolist() == e11.tolist()
    assert A.mul_vec(b[1], a[1]).tolist() == e22.tolist()


def test_witness_of_equal_idempotents_is_trivial():
    # the dual basis is forced to start at the representative itself
    A, _ = scramble(matrix_algebra(5, 3).algebra, seed=4)
    e = primitive_idempotent(A, A.one, 1, random.Random(0))
    a, b = dual_basis(A, A.one, e, A._hom_rows(e, e))
    assert a[0].tolist() == e.tolist()
    assert b[0].tolist() == e.tolist()


def test_witness_absent_across_blocks():
    A = group_algebra(cayley_fixture("C3"), 5)
    C, _ = block_idempotents(A)
    assert len(C) == 2
    e, f = C
    assert A._hom_rows(e, f).shape[0] == 0
    assert A._hom_rows(f, e).shape[0] == 0


def test_witness_symmetric_within_block():
    A, _ = scramble(matrix_algebra(5, 3).algebra, seed=4)
    (blk,) = full_isomorphism(A, seed=0).blocks
    dec = parts_of(full_isomorphism(A, seed=0))
    assert len(dec) == 3
    for i in range(3):
        for j in range(3):
            # the four defining relations of a witness from e_i to e_j,
            # re-checked from scratch
            a, b = blk.units[j, i], blk.units[i, j]
            e, f = dec[i], dec[j]
            assert A.mul_vec(a, b).tolist() == f.tolist()
            assert A.mul_vec(b, a).tolist() == e.tolist()
            assert A.mul_vec(f, A.mul_vec(a, e)).tolist() == a.tolist()
            assert A.mul_vec(e, A.mul_vec(b, f)).tolist() == b.tolist()


def test_dual_basis_outside_a_semisimple_block_fails():
    # upper triangular 2 x 2 matrices, e = E22: A*e = span(E22, E12) has
    # D-rank 2, but e*A = span(E22) cannot pair with E12 to give e
    A = make_presentation(5, _radical_sc())
    e22 = np.array([0, 0, 1])
    with pytest.raises(WitnessSolveFailed):
        dual_basis(A, A.one, e22, np.array([e22]))
