"""Radical detection: Maschke oracle over group algebras plus planted nilpotents."""

import numpy as np
import pytest

from wedderburn import (
    cayley_fixture,
    direct_sum,
    group_algebra,
    make_presentation,
    matrix_algebra,
    radical_basis,
    radical_report,
    require_semisimple,
    scramble,
)
from wedderburn.errors import NotSemisimple
from wedderburn.generators import FIXTURE_NAMES


def triangular3(p=5):
    """Upper triangular 2x2 matrices over F_p: basis E11, E12, E22."""
    sc = np.zeros((3, 3, 3), dtype=int)
    sc[0, 0, 0] = 1  # E11 E11 = E11
    sc[0, 1, 1] = 1  # E11 E12 = E12
    sc[1, 2, 1] = 1  # E12 E22 = E12
    sc[2, 2, 2] = 1  # E22 E22 = E22
    return make_presentation(p, sc)


def is_nilpotent_oracle(A, x):
    """Repeated squaring of the raw element, dim+1 rounds is plenty."""
    y = x % A.p
    for _ in range(A.dim + 1):
        if not y.any():
            return True
        y = A.mul_vec(y, y)
    return not y.any()


def test_maschke_exhaustively():
    # F_p[G] is semisimple exactly when p does not divide |G|
    for name in FIXTURE_NAMES:
        table = cayley_fixture(name)
        for p in (3, 5, 7, 11):
            A = group_algebra(table, p)
            want = table["order"] % p != 0
            assert radical_report(A).is_semisimple == want, (name, p)


def test_triangular_radical_is_e12():
    rep = radical_report(triangular3())
    assert not rep.is_semisimple
    assert rep.rows.tolist() == [[0, 1, 0]]
    assert rep.nilpotency_index == 2
    with pytest.raises(NotSemisimple) as info:
        require_semisimple(triangular3())
    assert info.value.radical_basis.tolist() == [[0, 1, 0]]


def test_f3c3_radical_is_augmentation_ideal():
    A = group_algebra(cayley_fixture("C3"), 3)
    rep = radical_report(A)
    assert not rep.is_semisimple
    assert rep.rows.tolist() == [[1, 0, 2], [0, 1, 2]]
    # every radical element is nilpotent, both via the report and the oracle
    assert rep.nilpotency_index == 3
    for row in rep.rows:
        assert is_nilpotent_oracle(A, row)
    # sanity: these really are augmentation-zero vectors
    assert all(int(row.sum()) % 3 == 0 for row in rep.rows)


def test_radical_elements_nilpotent_after_scramble():
    A0 = triangular3()
    A, S = scramble(A0, seed=13)
    rep = radical_report(A)
    assert len(rep.rows) == 1
    assert is_nilpotent_oracle(A, rep.rows[0])


def test_semisimple_cases_report_empty_radical():
    cases = [
        matrix_algebra(7, 2).algebra,
        matrix_algebra(5, 3).algebra,  # p < dim: deeper chain stages
        group_algebra(cayley_fixture("S3"), 5),
        direct_sum([matrix_algebra(5, 1).algebra, matrix_algebra(5, 1).algebra]),
    ]
    for A in cases:
        assert radical_basis(A).shape == (0, A.dim)
        require_semisimple(A)  # should not raise


def test_stage_dims_recorded():
    # p = 5 > dim 3: only the trace-form stage runs for the triangular case
    rep = radical_report(triangular3())
    assert rep.stage_dims[-1] == 1
    # F_3[C3] needs the deeper character-coefficient stages
    rep = radical_report(group_algebra(cayley_fixture("C3"), 3))
    assert rep.stage_dims[-1] == 2


def test_q8_at_p3_is_semisimple():
    # |Q8| = 8 is invertible mod 3; checks a nonabelian fixture at small p
    A = group_algebra(cayley_fixture("Q8"), 3)
    assert radical_report(A).is_semisimple


def test_report_caches():
    A = triangular3()
    assert radical_report(A) is radical_report(A)


def count_char_poly_calls(monkeypatch):
    from wedderburn import linalg

    calls = []
    real = linalg.char_poly

    def counting(M, p):
        calls.append(M.shape)
        return real(M, p)

    monkeypatch.setattr(linalg, "char_poly", counting)
    return calls


def test_scrambled_m6_over_f3_is_semisimple(monkeypatch):
    # 3 | 6 kills the trace form, so the c_3 stage alone proves semisimplicity
    A, _ = scramble(matrix_algebra(3, 6).algebra, seed=5)
    calls = count_char_poly_calls(monkeypatch)
    rep = radical_report(A)
    assert rep.is_semisimple
    assert rep.stage_dims == [36, 0]
    # all 36 * 37 / 2 pairs of the stage in one stacked call, not one per pair
    assert calls == [(666, 36, 36)]


def m3_plus_f3c3():
    parts = [matrix_algebra(3, 3).algebra, group_algebra(cayley_fixture("C3"), 3)]
    return scramble(direct_sum(parts), seed=7)[0]


def test_scrambled_m3_plus_f3c3_is_rejected_with_its_radical(monkeypatch):
    A = m3_plus_f3c3()
    calls = count_char_poly_calls(monkeypatch)
    rep = radical_report(A)
    assert rep.rows.shape == (2, 12)
    assert rep.stage_dims == [12, 2, 2]
    # the augmentation ideal of F_3[C3] squares to its cube, which is zero
    assert rep.nilpotency_index == 3
    for row in rep.rows:
        assert is_nilpotent_oracle(A, row)
    # one call per chain stage past the trace form (c_3, then c_9)
    assert [shape[0] for shape in calls] == [78, 3]
    with pytest.raises(NotSemisimple) as info:
        require_semisimple(A)
    assert len(info.value.radical_basis) == 2


def test_char_coeff_stage_is_chunked_and_chunking_is_invisible(monkeypatch):
    from wedderburn import radical

    want = radical_report(m3_plus_f3c3())
    # room for 10 pair products of 12 x 12 per chunk
    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", 10 * 12 * 12)
    calls = count_char_poly_calls(monkeypatch)
    got = radical_report(m3_plus_f3c3())
    assert got.rows.tolist() == want.rows.tolist()
    assert got.stage_dims == want.stage_dims
    assert got.nilpotency_index == want.nilpotency_index
    # 78 pairs at stage c_3 in chunks of 10, then the 3 pairs of stage c_9
    assert [shape[0] for shape in calls] == [10] * 7 + [8, 3]


@pytest.mark.parametrize("chunk_entries", [2**20, 7 * 12 * 12])
def test_char_coeff_form_matches_the_pairwise_definition(monkeypatch, chunk_entries):
    from wedderburn import linalg, radical

    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", chunk_entries)
    A = m3_plus_f3c3()
    n, p = A.dim, A.p
    rows = np.random.default_rng(3).integers(0, p, size=(6, n))
    for k in (3, 9):
        # B[s, t] = coefficient of T^(n-k) in det(T - L_{x_s} L_{x_t})
        want = [
            [int(linalg.char_poly(
                linalg.matmul_mod(A.lmat(x), A.lmat(y), p), p)[n - k])
             for y in rows]
            for x in rows
        ]
        assert radical._char_coeff_form(A, rows, k).tolist() == want
