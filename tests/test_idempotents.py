"""Block idempotents from the centre, the one-branch descent, dual bases."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from wedderburn import idempotents, linalg, poly
from wedderburn.algebra import Algebra
from wedderburn.blocks import dual_basis
from wedderburn.errors import (
    InternalInvariantViolation,
    NotSemisimple,
    SplitIterationCapExceeded,
    WitnessSolveFailed,
)
from wedderburn.idempotents import Corner, _fixed_space

from oracles import hom_rows, pairing_dual_oracle


def corner(A, e):
    """Independently rebuild e*A*e as an algebra with identity e."""
    return A.subalgebra(hom_rows(A, e, e), e)


def corner_of(A, e):
    """The idempotents.Corner at e, built afresh, for dual_basis."""
    return Corner(e, *idempotents._maps(A, e), hom_rows(A, e, e))


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
    assert len(hom_rows(A, e, e)) == 1
    a, b, _ = dual_basis(A, corner_of(A, e))
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


@pytest.mark.parametrize("split", ["centre", "descent"])
def test_a_non_idempotent_split_is_refused(monkeypatch, split):
    # both splits prove each component idempotent: the centre by its own
    # product, the descent from the L_e it builds for the new corner
    component = idempotents._component
    monkeypatch.setattr(idempotents, "_component",
                        lambda p, *args: 2 * component(p, *args) % p)
    with pytest.raises(InternalInvariantViolation, match="non-idempotent"):
        if split == "centre":  # F_7[C3] = F_7^3: the centre splits
            block_idempotents(group_algebra(cayley_fixture("C3"), 7))
        else:  # M_2(F_7) has centre F_7: only the descent splits
            A = matrix_algebra(7, 2).algebra
            primitive_idempotent(A, A.one, 1, random.Random(0))


def test_split_cap_exceeded(monkeypatch):
    P = build_planted([(2, 1), (1, 2)], 7)
    A, _ = scramble(P.algebra, seed=5)
    with monkeypatch.context() as m:
        m.setattr(idempotents, "SPLIT_CAP", 1)
        with pytest.raises(SplitIterationCapExceeded) as info:
            full_isomorphism(A, seed=0)
    assert info.value.cap == 1
    # the module's budget succeeds on the same input
    assert len(parts_of(full_isomorphism(A, seed=0))) == 3


@pytest.mark.parametrize("n, p, ext", [
    (2, 3, None), (2, 3, [1, 0, 1]), (3, 3, None), (5, 5, None),
], ids=["M_2(F_3)", "M_2(F_9)", "M_3(F_3)", "M_5(F_5)"])
def test_the_draw_budget_has_a_fourfold_margin(monkeypatch, n, p, ext):
    # no descent of 200 takes more than a quarter of SPLIT_CAP draws
    A, _ = scramble(matrix_algebra(p, n, ext).algebra, seed=1)
    (c,), (d,) = block_idempotents(A)
    draws, draw = [], Algebra.random_vec

    def counted(self, rng):
        draws.append(1)
        return draw(self, rng)

    monkeypatch.setattr(Algebra, "random_vec", counted)
    worst = 0
    for seed in range(200):
        draws.clear()
        idempotents._primitive_corner(A, c, d, random.Random(seed))
        worst = max(worst, len(draws))
    assert 0 < worst <= idempotents.SPLIT_CAP // 4


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
        n2d = len(hom_rows(A, c, c))
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
    assert len(hom_rows(A, e, e)) == d and is_field_corner(A, e)


def test_m1_block_keeps_e_equal_to_c():
    A, _ = scramble(build_planted([(1, 2), (1, 1), (2, 1)], 5).algebra, seed=1)
    res = full_isomorphism(A, seed=0)
    for blk in res.blocks:
        if blk.n == 1:
            assert blk.rep.tolist() == blk.c.tolist()
            assert blk.a.tolist() == blk.b.tolist() == [blk.c.tolist()]


@pytest.mark.parametrize("build, rank_side", [
    # p = 2^31 - 1: a trace of unreduced products would overflow int64
    (lambda: scramble(build_planted([(5, 1), (2, 2)], 2**31 - 1).algebra,
                      seed=1)[0], False),
    # p = dim + 1, the least p at which the trace gives the dimension
    (lambda: scramble(matrix_algebra(37, 6).algebra, seed=1)[0], False),
    # p <= dim: the rank side, with p | n and without
    (lambda: scramble(matrix_algebra(31, 6).algebra, seed=1)[0], True),
    (lambda: scramble(matrix_algebra(3, 3).algebra, seed=1)[0], True),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corner_size_is_the_dimension_of_every_corner(monkeypatch, build,
                                                      rank_side, seed):
    # the size the descent reads off its maps, for c and for every e it
    # splits off, is dim(e*A*e); only the rank side makes a basis for it
    A = build()
    blocks_and_degrees = list(zip(*block_idempotents(A)))
    split, sizes = [], []
    maps, size = idempotents._maps, idempotents._size
    monkeypatch.setattr(idempotents, "_maps",
                        lambda A, e: split.append(e) or maps(A, e))

    def spy_size(proj, p):
        got = size(proj, p)
        sizes.append((got[0], got[1] is not None))
        return got

    monkeypatch.setattr(idempotents, "_size", spy_size)
    splits = 0
    for c, d in blocks_and_degrees:
        split.clear()
        sizes.clear()
        e = primitive_idempotent(A, c, d, random.Random(seed))
        assert len(sizes) == len(split) + 1 and sizes[-1][0] == d
        for f, (got, made_basis) in zip([c, *split], sizes):
            assert got == len(hom_rows(A, f, f))
            assert made_basis == rank_side
        assert e.tolist() == (split[-1] if split else c).tolist()
        splits += len(split)
    assert splits


@pytest.mark.parametrize("spec, p", [
    ([(4, 1)], 3),
    ([(3, 2), (2, 1)], 3),
    ([(2, 3), (3, 1)], 7),
    ([(3, 1), (2, 2)], 97),
    ([(3, 2)], 2**31 - 1),
])
def test_descent_powers_stop_at_the_corner_degree(monkeypatch, spec, p):
    # a corner of dimension r^2 d in a block M_n(F_{p^d}) is M_r(F_{p^d}):
    # the powers run to x^(r*d), and the minimal polynomial fits in them
    A, _ = scramble(build_planted(spec, p).algebra, seed=3)
    C, degrees = block_idempotents(A)
    seen = []
    min_poly = idempotents.min_poly_of_powers
    monkeypatch.setattr(idempotents, "min_poly_of_powers",
                        lambda K, p: seen.append((K, min_poly(K, p))) or seen[-1][1])
    draws = 0
    for seed in range(4):
        for c, d in zip(C, degrees):
            seen.clear()
            primitive_idempotent(A, c, d, random.Random(seed))
            for K, m in seen:
                size = len(hom_rows(A, K[0], K[0]))
                r = math.isqrt(size // d)
                assert r * r * d == size and r > 1
                assert len(K) == r * d + 1 < A.dim + 1
                assert len(m) - 1 <= r * d
            draws += len(seen)
    assert draws


def least_factor_oracle(m, p, rng):
    """The descent's factor step before poly.factor: (g, k), the irreducible
    factor g of m least in (degree, coefficient) order and its multiplicity
    k, the minimum over the splits of each squarefree part."""
    parts = poly._squarefree(poly.monic(m, p), p)
    return min(((g, k) for s, k in parts for g in poly._split(s, p, rng, None)),
               key=lambda gk: (len(gk[0]), gk[0]))


@pytest.mark.parametrize("p", [3, 5, 97, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_least_factor_is_the_first_of_factor(p, data):
    # a product of drawn monics, some repeated (at p = 3 up to the p-th power,
    # so the p-th root branch runs): factor(...)[0] is the oracle's (g, k),
    # and both leave the generator in the same state
    m = [1]
    for _ in range(data.draw(st.integers(1, 3))):
        g = [data.draw(st.integers(0, p - 1)) for _ in range(data.draw(st.integers(1, 3)))]
        for _ in range(data.draw(st.integers(1, 3))):
            m = poly.mul(m, g + [1], p)
    seed = data.draw(st.integers(0, 2**32))
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = least_factor_oracle(m, p, want_rng)
    assert poly.factor(m, p, got_rng)[0] == want
    assert got_rng.getstate() == want_rng.getstate()


# -- dual bases: the connecting elements ---------------------------------------


def test_witness_example_elementary_matrices():
    A = matrix_algebra(7, 2).algebra
    e11 = np.array([1, 0, 0, 0])
    a, b, _ = dual_basis(A, corner_of(A, e11))
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
    a, b, _ = dual_basis(A, corner_of(A, e))
    assert a[0].tolist() == e.tolist()
    assert b[0].tolist() == e.tolist()


def test_witness_absent_across_blocks():
    A = group_algebra(cayley_fixture("C3"), 5)
    C, _ = block_idempotents(A)
    assert len(C) == 2
    e, f = C
    assert hom_rows(A, e, f).shape[0] == 0
    assert hom_rows(A, f, e).shape[0] == 0


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
    corner = corner_of(A, e22)
    assert corner.basis.tolist() == [e22.tolist()]
    with pytest.raises(WitnessSolveFailed):
        dual_basis(A, corner)


def dual_basis_oracle(A, c, e, D):
    """The dual basis as built before the search kept its corners: the
    spaces made afresh by hom_rows, b grown one extend_rref per row of
    (c-e)*A*e, taking the row when v*D adds rank, and a solved over the
    whole pairing (pairing_dual_oracle)."""
    p = A.p
    span, pivots = linalg.row_echelon(D, p)
    b = [e]
    rest = hom_rows(A, (c - e) % p, e)
    for v, vD in zip(rest, A.products(rest, D)):
        span, pivots, fresh = linalg.extend_rref(span, pivots, vD, p)
        if len(fresh):
            b.append(v)
    b = np.array(b)
    return pairing_dual_oracle(A, e, b), b


@pytest.mark.parametrize("spec, p", [
    ([(3, 1), (2, 2), (1, 3)], 3),  # p | n in M_3(F_3)
    ([(3, 2), (2, 1), (1, 1)], 3),  # p | n in M_3(F_9)
    ([(4, 1), (2, 3), (1, 2)], 97),
    ([(3, 1), (2, 2), (1, 3)], 2**31 - 1),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_basis_matches_the_greedy_loop(spec, p, seed):
    # one elimination of [D; rest*D] transposed takes the rows the greedy
    # loop takes, on the corner the search hands over
    A, _ = scramble(build_planted(spec, p).algebra, seed=seed)
    C, degrees = block_idempotents(A)
    assert sorted(degrees) == sorted(d for _, d in spec)
    for c, d in zip(C, degrees):
        corner = idempotents._primitive_corner(A, c, d, random.Random(seed))
        assert corner.basis.tolist() == hom_rows(A, corner.e, corner.e).tolist()
        a, b, _ = dual_basis(A, corner)
        want_a, want_b = dual_basis_oracle(A, c, corner.e, corner.basis)
        assert b.tolist() == want_b.tolist()
        assert a.tolist() == want_a.tolist()
