"""Radical detection: Maschke oracle over group algebras plus planted nilpotents."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import char_poly, pairwise_chain_oracle

from wedderburn import (
    build_planted,
    cayley_fixture,
    cli,
    direct_sum,
    full_isomorphism,
    group_algebra,
    make_presentation,
    matrix_algebra,
    radical,
    radical_report,
    require_semisimple,
    scramble,
    verify_isomorphism,
)
from wedderburn import blocks, idempotents, linalg
from wedderburn.algebra import Algebra
from wedderburn.errors import (
    InternalInvariantViolation,
    NotSemisimple,
    SplitIterationCapExceeded,
    UnsupportedCharacteristic,
)
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
        # the zero algebra, the corner at 0, with associativity pending
        matrix_algebra(7, 2).algebra.subalgebra(
            np.zeros((0, 4), dtype=np.int64), np.zeros(4, dtype=np.int64)),
    ]
    for A in cases:
        assert radical_report(A).rows.shape == (0, A.dim)
        require_semisimple(A)  # should not raise
    zero = radical_report(cases[-1])
    assert zero.rows.shape == (0, 0)
    assert zero.stage_dims == [0] and zero.nilpotency_index == 0


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


def test_report_is_computed_afresh_and_kept_nowhere():
    A = triangular3()
    attrs = dict(vars(A))
    first, second = radical_report(A), radical_report(A)
    assert first is not second
    assert first.rows.tolist() == second.rows.tolist() == [[0, 1, 0]]
    assert first.stage_dims == second.stage_dims
    assert first.nilpotency_index == second.nilpotency_index
    assert vars(A).keys() == attrs.keys()


def count_power_trace_calls(monkeypatch):
    """Record the stack shape of each linalg.power_traces call."""
    calls = []
    real = linalg.power_traces

    def counting(M, k, q):
        calls.append(M.shape)
        return real(M, k, q)

    monkeypatch.setattr(linalg, "power_traces", counting)
    return calls


def test_scrambled_m6_over_f3_is_semisimple(monkeypatch):
    # 3 | 6 kills the trace form, so the g_1 stage alone proves semisimplicity
    A, _ = scramble(matrix_algebra(3, 6).algebra, seed=5)
    calls = count_power_trace_calls(monkeypatch)
    rep = radical_report(A)
    assert rep.is_semisimple
    assert rep.stage_dims == [36, 0]
    # one matrix per basis row of the stage, all in one stacked call
    assert calls == [(36, 36, 36)]


def m3_plus_f3c3():
    parts = [matrix_algebra(3, 3).algebra, group_algebra(cayley_fixture("C3"), 3)]
    return scramble(direct_sum(parts), seed=7)[0]


def test_scrambled_m3_plus_f3c3_is_rejected_with_its_radical(monkeypatch):
    A = m3_plus_f3c3()
    calls = count_power_trace_calls(monkeypatch)
    rep = radical_report(A)
    assert rep.rows.shape == (2, 12)
    assert rep.stage_dims == [12, 2, 2]
    # the augmentation ideal of F_3[C3] squares to its cube, which is zero
    assert rep.nilpotency_index == 3
    for row in rep.rows:
        assert is_nilpotent_oracle(A, row)
    # one call per chain stage past the trace form (k = 3, then 9), with
    # one matrix per basis row of the stage it starts from
    assert [shape[0] for shape in calls] == [12, 2]
    with pytest.raises(NotSemisimple) as info:
        require_semisimple(A)
    assert len(info.value.radical_basis) == 2


def test_char_coeff_stage_is_chunked_and_chunking_is_invisible(monkeypatch):
    from wedderburn import radical

    want = radical_report(m3_plus_f3c3())
    # room for 5 matrices of 12 x 12 per chunk
    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", 5 * 12 * 12)
    calls = count_power_trace_calls(monkeypatch)
    got = radical_report(m3_plus_f3c3())
    assert got.rows.tolist() == want.rows.tolist()
    assert got.stage_dims == want.stage_dims
    assert got.nilpotency_index == want.nilpotency_index
    # the 12 rows of stage k = 3 in chunks of 5, then the 2 rows of k = 9
    assert [shape[0] for shape in calls] == [5, 5, 2, 2]


@pytest.mark.parametrize("chunk_entries", [2**20, 7 * 12 * 12])
def test_char_coeff_form_matches_one_char_poly_per_product(
        monkeypatch, chunk_entries):
    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", chunk_entries)
    A = m3_plus_f3c3()
    n, p = A.dim, A.p
    rep = radical_report(A)
    assert rep.stage_dims == [12, 2, 2]  # so R_1 is the radical
    basis = np.eye(n, dtype=np.int64)
    for k, rows in [(3, radical.trace_kernel(A)), (9, rep.rows)]:
        # B[s, j] = -c_k(x_s b_j), c_k the coefficient of T^(n-k) in
        # det(T - L_{x_s b_j}): the chain's older functional (Ronyai 1990),
        # which equals g_i on these rows
        want = [
            [-int(char_poly(A.lmat(A.mul_vec(x, b)), p)[n - k]) % p
             for b in basis]
            for x in rows
        ]
        assert radical._stage_form(A, rows, k).tolist() == want


def test_a_trace_not_divisible_by_k_is_refused(monkeypatch):
    # on R_{i-1} every Tr(L^k) mod pk is a multiple of k: one that is not
    # refuses the input, under python -O as well (no assert)
    real = linalg.power_traces
    monkeypatch.setattr(linalg, "power_traces",
                        lambda M, k, q: (real(M, k, q) + 1) % q)
    with pytest.raises(UnsupportedCharacteristic, match="not divisible by 3"):
        radical_report(m3_plus_f3c3())


def test_a_stage_that_is_not_an_ideal_is_refused(monkeypatch):
    # three random rows of M_3(F_3) + F_3[C3] span no right ideal, so
    # their products with the basis have no coordinates in the stage
    A = m3_plus_f3c3()
    rows = linalg.row_space_basis(
        np.random.default_rng(3).integers(0, A.p, size=(3, A.dim)), A.p)
    monkeypatch.setattr(radical, "trace_kernel", lambda A: rows)
    with pytest.raises(UnsupportedCharacteristic, match="not a right ideal"):
        radical_report(A)


# -- where the chain runs ------------------------------------------------------


def upper_triangular(n, p):
    """T_n(F_p), basis E_ij for i <= j: its centre is F_p, its radical the
    strictly upper triangular part."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {ij: k for k, ij in enumerate(idx)}
    sc = np.zeros((len(idx),) * 3, dtype=np.int64)
    for i, j in idx:
        for k, l in idx:
            if j == k:
                sc[pos[i, j], pos[k, l], pos[i, l]] = 1
    return make_presentation(p, sc)


def path_algebra(p):
    """Paths e1, e2, alpha, beta, beta*alpha; x*y is x after y.

    alpha is a loop at vertex 1 with alpha^2 = 0 and beta an arrow out of
    it.  The centre is F_p and the radical is spanned by alpha, beta and
    beta*alpha, but the corner at vertex 1 is the local ring
    F_p[alpha]/(alpha^2), which no draw splits.
    """
    e1, e2, alpha, beta, beta_alpha = range(5)
    sc = np.zeros((5, 5, 5), dtype=np.int64)
    for x, y, xy in [(e1, e1, e1), (e2, e2, e2), (e1, alpha, alpha),
                     (alpha, e1, alpha), (e2, beta, beta), (beta, e1, beta),
                     (e2, beta_alpha, beta_alpha), (beta_alpha, e1, beta_alpha),
                     (beta, alpha, beta_alpha)]:
        sc[x, y, xy] = 1
    return make_presentation(p, sc)


def spy_gram(monkeypatch):
    """Count the computations of stage 0 (the trace form's gram matrix)."""
    grams = []
    gram = Algebra.gram_matrix

    def counted(self):
        grams.append(self.dim)
        return gram(self)

    monkeypatch.setattr(Algebra, "gram_matrix", counted)
    return grams


def spy_chain(monkeypatch):
    """Record each stage of the chain past the trace form, by the dimension
    of the stage it starts from."""
    calls = []
    real = radical._stage_form

    def counting(A, rows, k):
        calls.append(len(rows))
        return real(A, rows, k)

    monkeypatch.setattr(radical, "_stage_form", counting)
    return calls


# semisimple at p <= dim, with a nonzero stage 0
SMALL_CHAR_PLANTED = [
    (5, [(5, 1), (2, 1), (1, 2)]),
    (3, [(3, 1), (3, 1), (2, 2)]),
    (3, [(3, 2), (2, 1), (1, 1)]),
]


@pytest.mark.parametrize("p, spec", SMALL_CHAR_PLANTED)
def test_verified_certificate_proves_semisimplicity_without_the_chain(
        monkeypatch, p, spec):
    A, _ = scramble(build_planted(spec, p).algebra, seed=1)
    assert radical.trace_kernel(A).shape[0] > 0  # stage 0 alone leaves it open
    calls, grams = spy_chain(monkeypatch), spy_gram(monkeypatch)
    res = full_isomorphism(A, seed=0)
    assert verify_isomorphism(A, res).passed
    assert calls == [] and grams == []


@pytest.mark.parametrize("p, spec", [
    (5, [(2, 1), (1, 1)]),  # p <= dim, and stage 0 is zero
    (7, [(2, 1), (1, 2), (3, 1)]),
    (7, [(2, 1), (1, 2)]),  # p > dim: stage 0 is the whole chain
])
def test_a_passing_decompose_computes_no_stage_0_at_any_p(monkeypatch, p, spec):
    # the search runs first on either side of p <= dim, and its passing
    # check proves the input semisimple: the trace form is never built
    A, _ = scramble(build_planted(spec, p).algebra, seed=1)
    grams = spy_gram(monkeypatch)
    res = full_isomorphism(A, seed=0)
    assert verify_isomorphism(A, res).passed
    assert grams == []


def test_scrambled_m9_over_f3_skips_the_chain(monkeypatch):
    # the chain is not needed here: the checked decomposition proves this
    # dim-81 algebra semisimple
    A, _ = scramble(matrix_algebra(3, 9).algebra, seed=1)
    calls = spy_chain(monkeypatch)
    res = full_isomorphism(A, seed=0)
    assert [(blk.n, blk.D.degree) for blk in res.blocks] == [(9, 1)]
    assert verify_isomorphism(A, res).passed
    assert calls == []


REJECTIONS = {
    "T_3(F_3)": lambda: upper_triangular(3, 3),
    "path algebra over F_3": lambda: path_algebra(3),
    "M_3(F_3) + F_3[S3]": lambda: scramble(direct_sum([
        matrix_algebra(3, 3).algebra, group_algebra(cayley_fixture("S3"), 3),
    ]), seed=4)[0],
    "M_4(F_3) + F_3[C3]": lambda: scramble(direct_sum([
        matrix_algebra(3, 4).algebra, group_algebra(cayley_fixture("C3"), 3),
    ]), seed=4)[0],
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_runs_the_chain_and_matches_a_fresh_report(monkeypatch, name):
    want = radical_report(REJECTIONS[name]())
    A = REJECTIONS[name]()
    calls, grams = spy_chain(monkeypatch), spy_gram(monkeypatch)
    with pytest.raises(NotSemisimple) as info:
        full_isomorphism(A, seed=0)
    # the search first, then one chain, which computes stage 0 once
    assert len(calls) == len(want.stage_dims) - 1 and grams == [A.dim]
    assert info.value.radical_basis.tolist() == want.rows.tolist()
    got = radical_report(A)  # a fresh report: the chain runs again
    assert len(calls) == 2 * (len(want.stage_dims) - 1)
    assert got.rows.tolist() == want.rows.tolist()
    assert got.stage_dims == want.stage_dims
    assert got.nilpotency_index == want.nilpotency_index


def cyclic_group_algebra(m, p):
    """F_p[C_m] from an inline Cayley table: entry (a, b) is a + b mod m."""
    return group_algebra({"order": m, "identity": 0, "table": [
        [(a + b) % m for b in range(m)] for a in range(m)]}, p)


PINNED = {
    **REJECTIONS,
    # p | m: one stage past the trace form at q = p^2 (F_31[C31] on float64
    # BLAS, as 31 (q-1)^2 >= 2^24), and three for F_3[C27], up to q = 81
    **{f"F_{p}[C{m}]": (lambda m=m, p=p: cyclic_group_algebra(m, p))
       for m, p in ((5, 5), (10, 5), (7, 7), (14, 7), (31, 31), (27, 3))},
    "M_3(F_3) + F_3[C3]": m3_plus_f3c3,
    **{f"F_3[{g}]": (lambda g=g: group_algebra(cayley_fixture(g), 3))
       for g in ("S3", "C3", "Q8")},
    **{f"planted {spec} over F_{p}":
       (lambda p=p, spec=spec: scramble(build_planted(spec, p).algebra, seed=1)[0])
       for p, spec in SMALL_CHAR_PLANTED},
}


@pytest.mark.parametrize("name", PINNED)
def test_chain_matches_the_pairwise_oracle(monkeypatch, name):
    A = PINNED[name]()
    want = pairwise_chain_oracle(A)
    calls = count_power_trace_calls(monkeypatch)
    rep = radical_report(A)
    assert (rep.rows.tolist(), rep.stage_dims, rep.nilpotency_index) == (
        want[0].tolist(), want[1], want[2])
    # each stage past the trace form, one stacked call of one matrix per
    # basis row of the stage it starts from
    assert [shape[0] for shape in calls] == rep.stage_dims[:-1]


@st.composite
def small_char_sums(draw):
    """Scrambled direct sums of M_k(F_p), group algebras, F_p[C_p] and
    T_k(F_p) at p in {3, 5, 7}, dim <= 24.  No fixture group has order
    divisible by 5 or 7, so F_p[C_p] and the T_k, whose radicals leave
    stage 0 nonzero, give the stages past it at p = 5 and 7 (T_5(F_5),
    where left multiplication by E_11 has trace 5, also degenerates the
    trace form)."""
    p = draw(st.sampled_from([3, 5, 7]))
    part = st.one_of(
        st.integers(1, 4).map(lambda k: matrix_algebra(p, k).algebra),
        st.sampled_from(FIXTURE_NAMES).map(
            lambda g: group_algebra(cayley_fixture(g), p)),
        st.builds(cyclic_group_algebra, st.just(p), st.just(p)),
        st.integers(2, 5).map(lambda k: upper_triangular(k, p)),
    )
    parts = draw(st.lists(part, min_size=1, max_size=3).filter(
        lambda parts: sum(P.dim for P in parts) <= 24))
    return scramble(direct_sum(parts), seed=draw(st.integers(0, 500)))[0]


@given(small_char_sums())
@settings(max_examples=90, derandomize=True, deadline=None)
def test_chain_matches_the_pairwise_oracle_on_drawn_sums(A):
    rows, stage_dims, index = pairwise_chain_oracle(A)
    rep = radical_report(A)
    assert rep.rows.tolist() == rows.tolist()
    assert rep.stage_dims == stage_dims
    assert rep.nilpotency_index == index


@pytest.mark.parametrize("name", ["M_3(F_3) + F_3[S3]", "M_4(F_3) + F_3[C3]"])
def test_nilpotent_centre_is_refused_before_any_draw(monkeypatch, name):
    # F_3[S3] and F_3[C3] are local rings whose centres hold nilpotents
    A = REJECTIONS[name]()
    A.require_associative()  # the certificate's own draws come first
    draws = []
    draw = Algebra.random_vec

    def counted(self, rng):
        draws.append(1)
        return draw(self, rng)

    monkeypatch.setattr(Algebra, "random_vec", counted)
    with pytest.raises(InternalInvariantViolation, match="nilpotent"):
        idempotents._block_idempotents(A)
    with pytest.raises(NotSemisimple):
        full_isomorphism(A, seed=0)
    assert draws == []


@pytest.mark.parametrize("name", ["T_3(F_3)", "path algebra over F_3"])
def test_reduced_centre_reaches_the_search(name):
    # the centre is F_3, so the centre split cannot see the radical
    C, degrees = idempotents._block_idempotents(REJECTIONS[name]())
    assert len(C) == 1 and degrees == [1]


def test_path_algebra_is_rejected_for_every_seed(monkeypatch):
    # some seeds land in the corner F_3[alpha]/(alpha^2), which no draw
    # splits: they spend the draw budget and then run the chain
    capped = []
    search = blocks._search

    def spy(A, seed):
        try:
            return search(A, seed)
        except SplitIterationCapExceeded as exc:
            capped.append(exc.cap)
            raise

    monkeypatch.setattr(blocks, "_search", spy)
    for seed in range(8):
        with pytest.raises(NotSemisimple) as info:
            full_isomorphism(path_algebra(3), seed=seed)
        assert len(info.value.radical_basis) == 3
    assert capped and set(capped) == {idempotents.SPLIT_CAP}


def test_search_errors_surface_after_the_chain_certifies_zero(monkeypatch):
    # seed 2 needs a second draw in M_3(F_3); with a budget of one draw the
    # search fails, the chain certifies a zero radical, and the caller sees
    # the search's own error
    A = matrix_algebra(3, 3).algebra
    calls = spy_chain(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(idempotents, "SPLIT_CAP", 1)
        with pytest.raises(SplitIterationCapExceeded) as info:
            full_isomorphism(A, seed=2)
    assert info.value.cap == 1 and calls == [9]
    assert radical_report(A).is_semisimple  # computed afresh: a second chain
    assert calls == [9, 9]
    res = full_isomorphism(A, seed=2)  # the search passes: no chain runs
    assert verify_isomorphism(A, res).passed and calls == [9, 9]


@pytest.mark.parametrize("build, cap", [
    (lambda: matrix_algebra(7, 2).algebra, None),  # p > dim
    (lambda: scramble(build_planted([(3, 1), (1, 2)], 3).algebra, seed=1)[0],
     None),  # p <= dim, semisimple
    # p <= dim: the search fails, and the chain certifies a zero radical
    (lambda: matrix_algebra(3, 3).algebra, 1),
], ids=["p>dim", "p<=dim", "cap-exceeded-after-the-chain"])
def test_one_search_per_decomposition(monkeypatch, build, cap):
    A = build()
    seeds, search = [], blocks._search

    def spy(A, seed):
        seeds.append(seed)
        return search(A, seed)

    monkeypatch.setattr(blocks, "_search", spy)
    if cap is None:
        assert verify_isomorphism(A, full_isomorphism(A, seed=2)).passed
    else:
        monkeypatch.setattr(idempotents, "SPLIT_CAP", cap)
        with pytest.raises(SplitIterationCapExceeded) as info:
            full_isomorphism(A, seed=2)
        assert info.value.cap == cap
    assert seeds == [2]


def test_a_failed_check_sends_the_search_to_the_chain(monkeypatch):
    # only a certificate that check accepts stands in for the chain
    A, _ = scramble(build_planted([(3, 1), (1, 2)], 3).algebra, seed=1)
    calls = spy_chain(monkeypatch)
    monkeypatch.setattr(blocks, "check", lambda A, cert: [
        blocks.Failure("certificate", "forced failure")])
    res = full_isomorphism(A, seed=0)
    assert calls == [radical.trace_kernel(A).shape[0]]
    monkeypatch.undo()
    assert verify_isomorphism(A, res).passed


def spy_products(monkeypatch):
    """Record the entries of each left and right product of the basis."""
    sizes = []
    for name in ("left", "right"):
        real = getattr(Algebra, name)

        def spy(self, X, real=real):
            out = real(self, X)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(Algebra, name, spy)
    return sizes


@pytest.mark.parametrize("name", REJECTIONS)
def test_ideal_and_nilpotency_checks_in_one_row_chunks(monkeypatch, name):
    # a budget of n^2 entries takes one row per chunk: the same radical,
    # stages and index, and no product of the basis past the budget
    want = radical_report(REJECTIONS[name]())
    A = REJECTIONS[name]()
    A.require_associative()  # the certificate keeps its own budget
    n = A.dim
    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", n * n)
    sizes = spy_products(monkeypatch)
    got = radical_report(A)
    assert got.rows.tolist() == want.rows.tolist()
    assert got.stage_dims == want.stage_dims
    assert got.nilpotency_index == want.nilpotency_index
    assert sizes and max(sizes) <= n * n


def test_chunked_ideal_and_nilpotency_checks_stop_at_the_first_failure(
        monkeypatch):
    A = m3_plus_f3c3()
    A.require_associative()
    n, p = A.dim, A.p
    monkeypatch.setattr(radical, "_CHUNK_ENTRIES", n * n)
    sizes = spy_products(monkeypatch)
    # random rows span no ideal: the first row's right products leave it
    rows = linalg.row_space_basis(
        np.random.default_rng(3).integers(0, p, size=(3, n)), p)
    assert not radical._verify_two_sided_ideal(A, rows)
    assert sizes == [n * n]
    # the whole algebra is not nilpotent: its first basis row, the
    # identity, already multiplies it onto all of A
    del sizes[:]
    j = int(np.flatnonzero(A.one)[0])
    whole = np.eye(n, dtype=np.int64)
    whole[j] = whole[0]
    whole[0] = A.one
    assert radical._verify_nilpotent(A, whole) is None
    assert sizes == [n * n]


@pytest.mark.parametrize("name", ["T_3(F_3)", "path algebra over F_3"])
def test_cli_rejection_exit_2_prints_the_certified_radical(
        tmp_path, capsys, name):
    want = radical_report(REJECTIONS[name]()).rows
    doc = tmp_path / "a.json"
    doc.write_text(cli.canonical_json(REJECTIONS[name]().to_doc()))
    assert cli.main(["decompose", str(doc)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"not semisimple: radical has dimension {len(want)}",
        *(f"  radical basis element: {row.tolist()}" for row in want),
    ]
