"""Primitive idempotent splitting and equivalence witnesses."""

import numpy as np
import pytest

from wedderburn import (
    build_planted,
    cayley_fixture,
    decompose_identity,
    direct_sum,
    equivalence_witness,
    group_algebra,
    make_presentation,
    matrix_algebra,
    scramble,
)
from wedderburn.errors import (
    NotSemisimple,
    NotSemisimpleContext,
    SplitIterationCapExceeded,
)
from wedderburn.idempotents import _fixed_space


def verify_primitivity(A, cert):
    """Independently rebuild the corner and recheck the certificate."""
    corner = A.corner(cert.e)
    B = corner.algebra
    if B.dim != cert.corner_dim or not B.is_commutative():
        return False
    return _fixed_space(corner).shape[0] == 1 == cert.frobenius_fixed_dim


def check_decomposition(A, dec):
    """Structural oracle: orthogonal idempotents summing to one, all primitive."""
    total = np.zeros(A.dim, dtype=np.int64)
    for e in dec.parts:
        ec = e.coords
        assert np.array_equal(A.mul_vec(ec, ec), ec)
        assert ec.any()
        total = (total + ec) % A.p
    assert total.tolist() == A.one.tolist()
    for i, e in enumerate(dec.parts):
        for f in dec.parts[i + 1 :]:
            assert not A.mul_vec(e.coords, f.coords).any()
            assert not A.mul_vec(f.coords, e.coords).any()
    for e, cert in zip(dec.parts, dec.certificates):
        assert cert.valid
        assert cert.e.tolist() == e.coords.tolist()
        assert verify_primitivity(A, cert)


def test_f5xf5_splits_into_the_two_factors():
    A = direct_sum([matrix_algebra(5, 1).algebra, matrix_algebra(5, 1).algebra])
    dec = decompose_identity(A, seed=0)
    assert [e.coords.tolist() for e in dec.parts] == [[1, 0], [0, 1]]
    check_decomposition(A, dec)


def test_m2f7_gives_two_equivalent_parts():
    A = matrix_algebra(7, 2).algebra
    dec = decompose_identity(A, seed=0)
    assert len(dec.parts) == 2
    check_decomposition(A, dec)
    w = equivalence_witness(A, dec.parts[0].coords, dec.parts[1].coords)
    assert w is not None


def test_part_counts_on_group_algebras():
    # number of primitive parts = sum of n_i over the blocks
    for name, p, want in [("C3", 7, 3), ("C3", 5, 2), ("S3", 5, 4), ("C4", 5, 4)]:
        A = group_algebra(cayley_fixture(name), p)
        dec = decompose_identity(A, seed=0)
        assert len(dec.parts) == want, (name, p)
        check_decomposition(A, dec)


def test_decomposition_deterministic_per_seed():
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=2)
    d1 = decompose_identity(A, seed=7)
    d2 = decompose_identity(A, seed=7)
    assert [e.coords.tolist() for e in d1.parts] == [
        e.coords.tolist() for e in d2.parts
    ]
    # a different seed may find different idempotents but the same count
    d3 = decompose_identity(A, seed=8)
    assert len(d3.parts) == len(d1.parts)
    check_decomposition(A, d3)


def test_central_split_branch_is_seed_free():
    # commutative with nontrivial Frobenius-fixed center: the split is
    # deterministic, so any two seeds give identical decompositions
    A = group_algebra(cayley_fixture("C4"), 5)
    d1 = decompose_identity(A, seed=1)
    d2 = decompose_identity(A, seed=999)
    assert [e.coords.tolist() for e in d1.parts] == [
        e.coords.tolist() for e in d2.parts
    ]


def test_rejects_non_semisimple_input():
    sc = np.zeros((3, 3, 3), dtype=int)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 2, 1] = 1
    sc[2, 2, 2] = 1
    A = make_presentation(5, sc)
    with pytest.raises(NotSemisimple):
        decompose_identity(A, seed=0)


def test_split_once_demands_prior_certification():
    from wedderburn import split_once

    A = matrix_algebra(7, 2).algebra  # fresh: nobody certified it yet
    with pytest.raises(NotSemisimpleContext):
        split_once(A, A.one)


def test_split_cap_exceeded():
    P = build_planted([(2, 1), (1, 2)], 7)
    A, _ = scramble(P.algebra, seed=5)
    with pytest.raises(SplitIterationCapExceeded):
        decompose_identity(A, seed=0, cap=1)
    # the default cap succeeds on the same input
    dec = decompose_identity(A, seed=0)
    assert len(dec.parts) == 3


# -- witnesses ----------------------------------------------------------------


def test_witness_example_elementary_matrices():
    A = matrix_algebra(7, 2).algebra
    e11 = np.array([1, 0, 0, 0])
    e22 = np.array([0, 0, 0, 1])
    w = equivalence_witness(A, e11, e22)
    # a lies in e22 A e11, b in e11 A e22, here literally E21 and E12
    assert w.a.coords.tolist() == [0, 0, 1, 0]
    assert w.b.coords.tolist() == [0, 1, 0, 0]
    assert A.mul_vec(w.a.coords, w.b.coords).tolist() == e22.tolist()
    assert A.mul_vec(w.b.coords, w.a.coords).tolist() == e11.tolist()


def test_witness_of_equal_idempotents_is_trivial():
    A = matrix_algebra(7, 2).algebra
    e11 = np.array([1, 0, 0, 0])
    w = equivalence_witness(A, e11, e11)
    assert w.a.coords.tolist() == e11.tolist()
    assert w.b.coords.tolist() == e11.tolist()


def test_witness_absent_across_blocks():
    A = group_algebra(cayley_fixture("C3"), 5)
    dec = decompose_identity(A, seed=0)
    assert len(dec.parts) == 2
    e, f = dec.parts[0].coords, dec.parts[1].coords
    assert equivalence_witness(A, e, f) is None
    assert equivalence_witness(A, f, e) is None


def test_witness_symmetric_within_block():
    A, _ = scramble(matrix_algebra(5, 3).algebra, seed=4)
    dec = decompose_identity(A, seed=0)
    assert len(dec.parts) == 3
    for i in range(3):
        for j in range(3):
            w = equivalence_witness(A, dec.parts[i].coords, dec.parts[j].coords)
            assert w is not None
            # the four defining relations, re-checked from scratch
            e, f = dec.parts[i].coords, dec.parts[j].coords
            assert A.mul_vec(w.a.coords, w.b.coords).tolist() == f.tolist()
            assert A.mul_vec(w.b.coords, w.a.coords).tolist() == e.tolist()
            assert A.mul_vec(f, A.mul_vec(w.a.coords, e)).tolist() == w.a.coords.tolist()
            assert A.mul_vec(e, A.mul_vec(w.b.coords, f)).tolist() == w.b.coords.tolist()
