"""Block assembly: block data, units, entry maps, the global isomorphism."""

import copy
import functools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import (
    Algebra,
    build_planted,
    cayley_fixture,
    direct_sum,
    from_doc,
    full_isomorphism,
    group_algebra,
    make_presentation,
    matrix_algebra,
    radical_report,
    result_to_doc,
    scramble,
    verify_isomorphism,
    verify_report_doc,
)
from wedderburn import blocks, cli, idempotents, linalg
from wedderburn.algebra import matrix_ring
from wedderburn.blocks import (
    apply_iso,
    codomain_algebra,
    flatten,
    target_multiply,
    unflatten,
)
from wedderburn.errors import (
    InvalidDocument,
    NoIdentity,
    NonBijective,
    NotAssociative,
    ShapeMismatch,
)
from wedderburn.linalg import matmul_mod

from oracles import hom_rows, iso_oracle, pairing_dual_oracle


def c3(p=5):
    return group_algebra(cayley_fixture("C3"), p)


def entry_one(A, blk):
    """Identity of the block's entry field, in its division basis."""
    return A.subalgebra(blk.D.basis, blk.rep).one


def delta_oracle(A, units):
    """Exhaustive check of the unit relations, straight from the definition."""
    n = len(units)
    for mu in range(n):
        for nu in range(n):
            for xi in range(n):
                for eta in range(n):
                    got = A.mul_vec(units[mu][nu], units[xi][eta])
                    want = units[mu][eta] if nu == xi else np.zeros(A.dim, dtype=int)
                    if got.tolist() != want.tolist():
                        return False
    return True


# -- block data -------------------------------------------------------------------


def test_grouping_counts():
    for build, want in [
        (lambda: c3(5), [1, 1]),
        (lambda: c3(7), [1, 1, 1]),
        (lambda: matrix_algebra(7, 2).algebra, [2]),
        (lambda: group_algebra(cayley_fixture("S3"), 5), [1, 1, 2]),
    ]:
        A = build()
        res = full_isomorphism(A, seed=0)
        assert sorted(blk.n for blk in res.blocks) == want


def test_search_calls_center_basis_only_on_a(monkeypatch):
    # the blocks come from A's centre alone, read unproved off the closure,
    # and no corner algebra is built: the one subalgebra the search
    # presents is that centre (check, which runs after it, presents each
    # entry field)
    A, _ = scramble(build_planted([(2, 1), (1, 2), (3, 1)], 7).algebra, seed=2)
    center, subalgebra, search = (Algebra._center_basis, Algebra.subalgebra,
                                  blocks._search)
    calls, searching = [], []

    def counted_center(self):
        calls.append(("center_basis", self is A))
        return center(self)

    def counted_subalgebra(self, rows, one):
        if searching:
            calls.append(("subalgebra", self is A and len(rows) == 1 + 2 + 1))
        return subalgebra(self, rows, one)

    def spy_search(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(Algebra, "_center_basis", counted_center)
    monkeypatch.setattr(Algebra, "subalgebra", counted_subalgebra)
    monkeypatch.setattr(blocks, "_search", spy_search)
    full_isomorphism(A, seed=0)
    assert calls == [("center_basis", True), ("subalgebra", True)]


def test_family_orientation():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    assert len(res.blocks) == 1
    blk = res.blocks[0]
    a, b, rep = blk.a, blk.b, blk.rep
    assert a[0].tolist() == rep.tolist() and b[0].tolist() == rep.tolist()
    for mu in range(blk.n):
        assert A.mul_vec(a[mu], b[mu]).tolist() == rep.tolist()
        assert A.mul_vec(b[mu], a[mu]).tolist() == blk.units[mu, mu].tolist()


def test_central_idempotents_of_f5c3():
    A = c3()
    res = full_isomorphism(A, seed=0)
    # trivial block: (1 + g + g^2)/3, and 1/3 = 2 mod 5
    assert [b.c.tolist() for b in res.blocks] == [[2, 2, 2], [4, 3, 3]]
    total = np.zeros(3, dtype=int)
    for b in res.blocks:
        total = (total + b.c) % 5
    assert total.tolist() == A.one.tolist()


def test_matrix_units_pass_delta_oracle():
    for A in (matrix_algebra(7, 2).algebra, scramble(matrix_algebra(5, 3).algebra, seed=1)[0]):
        res = full_isomorphism(A, seed=0)
        for blk in res.blocks:
            assert delta_oracle(A, blk.units)


def test_matrix_units_catch_corruption():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    bad = copy.deepcopy(res)
    blk = bad.blocks[0]
    blk.a = blk.a.copy()
    blk.a[1] = (blk.a[1] * 2) % 7  # scales a without fixing b
    blk.units = blocks.matrix_units(A, blk.a, A.left(blk.b))
    assert not delta_oracle(A, blk.units)
    rep = verify_isomorphism(A, bad)
    assert not rep.passed
    assert "block 0: a[1] does not map to E[0,1]" in rep.failures


def test_unit_relations_are_checked_on_the_units_themselves():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    doc = result_to_doc(res, verify_isomorphism(A, res))
    units = doc["blocks"][0]["matrix_units"]
    units[0][1], units[1][0] = units[1][0], units[0][1]
    # E[1,0] * E[0,1] = E[1,1], not the E[0,0] that (0,1)*(1,0) must give
    assert "block 0: matrix unit (0,1) does not map to E[0,1]" in verify_report_doc(A, doc)


# -- the entry map ---------------------------------------------------------------

# the block map sends x to its per-block entry grids: apply_iso


def test_block_map_of_central_idempotent_is_identity_grid():
    A = c3()
    res = full_isomorphism(A, seed=0)
    for blk in res.blocks:
        grid = apply_iso(res, blk.c)[blk.index]
        done = entry_one(A, blk)
        for mu in range(blk.n):
            for nu in range(blk.n):
                want = done if mu == nu else np.zeros(blk.D.degree, dtype=int)
                assert grid[mu][nu].tolist() == want.tolist()


def test_block_map_of_other_blocks_element_is_zero():
    A = c3()
    res = full_isomorphism(A, seed=0)
    grid = apply_iso(res, res.blocks[1].c)[0]
    assert all(not entry.any() for row in grid for entry in row)


def test_block_map_of_units_gives_elementary_grids():
    A, _ = scramble(matrix_algebra(5, 2).algebra, seed=9)
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    done = entry_one(A, blk)
    for mu in range(blk.n):
        for nu in range(blk.n):
            grid = apply_iso(res, blk.units[mu][nu])[0]
            for s in range(blk.n):
                for t in range(blk.n):
                    want = done if (s, t) == (mu, nu) else np.zeros(
                        blk.D.degree, dtype=int
                    )
                    assert grid[s][t].tolist() == want.tolist()


def test_division_basis_of_another_members_corner_is_refused():
    # present the block on the corner of a non-representative member: that
    # corner is a field, but it misses the representative, the identity of
    # the corner that holds every entry a[mu]*x*b[nu]
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    other = blk.units[-1, -1]
    blk.D = blk.D._replace(basis=hom_rows(A, other, other))
    assert [f.message for f in blocks.check(A, res)] == [
        "block 0: division basis is not closed under product"
    ]


def iso_rows_oracle(A, blk):
    """Iso rows of one block in layout order (mu, nu, t), by a coordinate
    solve: entry (mu, nu) of the image of b_j is a[mu]*b_j*b[nu] in the
    division basis.  None when some entry lies outside its span."""
    eye = np.eye(A.dim, dtype=np.int64)
    rows = []
    for mu in range(blk.n):
        left = A.products(blk.a[mu][None], eye)[0]  # a[mu]*b_j
        for nu in range(blk.n):
            sandwich = A.products(left, blk.b[nu][None])[:, 0]
            coords = linalg.coordinates(blk.D.basis, sandwich, A.p)
            if coords is None:
                return None
            rows.append(coords.T)
    return np.concatenate(rows)


def iso_failures_oracle(A, cert):
    """The bijectivity stage's message for a cert whose iso alone is
    corrupt: the first row of iso that differs from iso_rows_oracle, at the
    first column where that row of iso * iso_inverse leaves the identity."""
    want = np.concatenate([iso_rows_oracle(A, blk) for blk in cert.blocks])
    for i in np.flatnonzero((cert.iso != want).any(axis=1))[:1]:
        row = matmul_mod(cert.iso[i][None], cert.iso_inverse, A.p)[0]
        j = np.flatnonzero(row != np.eye(A.dim, dtype=np.int64)[i])[0]
        return [f"iso * iso_inverse differs from the identity at ({i},{j})"]
    return []


@functools.lru_cache(maxsize=None)
def _iso_case(p):
    """Scrambled M_2(F_p) + M_1(F_{p^2}) + F_p and its decomposition."""
    A, _ = scramble(build_planted([(2, 1), (1, 2), (1, 1)], p).algebra, seed=4)
    return A, full_isomorphism(A, seed=0)


@pytest.mark.parametrize("p", [7, 97, 2**31 - 1])
def test_search_iso_is_the_per_block_solve(p):
    A, res = _iso_case(p)
    want = np.concatenate([iso_rows_oracle(A, blk) for blk in res.blocks])
    assert np.array_equal(res.iso, want)


_READ_OFF_CASES = {
    "M_3(F_3)+M_1(F_9), p | n": ([(3, 1), (1, 2)], 3),
    "M_5(F_5)+M_2(F_5)+M_1(F_25), p | n": ([(5, 1), (2, 1), (1, 2)], 5),
    "planted p = 97": ([(3, 1), (2, 2), (1, 3)], 97),
    "planted p = 65537": ([(2, 1), (2, 2), (1, 1)], 65537),
    "planted p = 2^31-1": ([(2, 1), (1, 2), (1, 1)], 2**31 - 1),
    "planted p = 2^31-1, n*d = 6": ([(3, 2), (1, 1)], 2**31 - 1),
    "F_7[S3]": ("S3", 7),
    "F_3[Q8]": ("Q8", 3),
}


@pytest.mark.parametrize("name", _READ_OFF_CASES)
def test_search_reads_what_the_solves_gave(name):
    # iso is read off products and a off D's coordinates; the solves they
    # replace, the inverse of the witness and the pairing over all n*dim
    # columns, give the same arrays
    spec, p = _READ_OFF_CASES[name]
    A = (group_algebra(cayley_fixture(spec), p) if isinstance(spec, str)
         else build_planted(spec, p).algebra)
    A, _ = scramble(A, seed=5)
    res = blocks._search(A, seed=0)
    assert blocks.check(A, res) == []
    assert np.array_equal(res.iso, iso_oracle(res))
    for blk in res.blocks:
        assert np.array_equal(blk.a, pairing_dual_oracle(A, blk.rep, blk.b))


@pytest.mark.parametrize("p", [97, 2**31 - 1])
def test_dual_basis_takes_one_solve_and_no_coordinates(monkeypatch, p):
    # per block: the row space of (c-e)*A*e, the elimination that picks b
    # (only when n > 1), and the one solve for a; no call of coordinates
    A, _ = scramble(build_planted([(3, 2), (1, 1)], p).algebra, seed=2)
    C, degrees = idempotents._block_idempotents(A)
    corners = [idempotents._primitive_corner(A, c, d, random.Random(0))
               for c, d in zip(C, degrees)]
    calls = []

    def spy(name):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args: calls.append(name) or real(*args))

    spy("coordinates")
    spy("row_echelon")
    sizes = []
    for corner in corners:
        calls.clear()
        a, b, _ = blocks.dual_basis(A, corner)
        assert calls == ["row_echelon"] * (3 if len(b) > 1 else 2)
        assert np.array_equal(a, pairing_dual_oracle(A, corner.e, b))
        sizes.append(len(b))
    assert sorted(sizes) == [1, 3]


@pytest.mark.parametrize("p", [7, 97, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_iso_stage_matches_the_per_block_solve(p, data):
    # the check reads the first wrong row off iso * iso_inverse; the oracle
    # solves the rows afresh
    A, res = _iso_case(p)
    bad = copy.deepcopy(res)
    cell = st.tuples(st.integers(0, A.dim - 1), st.integers(0, A.dim - 1),
                     st.integers(1, p - 1))
    for i, j, delta in data.draw(st.lists(cell, min_size=1, max_size=4)):
        bad.iso[i, j] = (bad.iso[i, j] + delta) % p
    assert [f.message for f in blocks.check(A, bad)] == iso_failures_oracle(A, bad)


# -- the global isomorphism -------------------------------------------------------


def test_iso_is_invertible_and_layout_complete():
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=6)
    res = full_isomorphism(A, seed=0)
    eye = np.eye(A.dim, dtype=int)
    assert matmul_mod(res.iso, res.iso_inverse, 5).tolist() == eye.tolist()
    assert matmul_mod(res.iso_inverse, res.iso, 5).tolist() == eye.tolist()
    assert len(res.layout) == A.dim
    # layout rows are (block, mu, nu, t) in flattened order
    assert res.layout[0].tolist() == [0, 0, 0, 0]


def test_a_singular_witness_is_refused_by_the_bijective_stage(monkeypatch):
    # the search inverts nothing: a singular W is check's to refuse, and
    # after the chain certifies a zero radical the result comes back
    A = matrix_algebra(7, 2).algebra
    monkeypatch.setattr(blocks, "_witness", lambda A, found, lefts: np.zeros(
        (A.dim, A.dim), dtype=np.int64))
    res = full_isomorphism(A, seed=0)
    ver = verify_isomorphism(A, res)
    assert not ver.bijective
    assert ver.failures == ["iso * iso_inverse differs from the identity at (0,0)"]


def test_a_map_that_is_not_square_raises_non_bijective(monkeypatch):
    A = matrix_algebra(7, 2).algebra
    rows = blocks._iso_rows
    monkeypatch.setattr(blocks, "_iso_rows", lambda *args: rows(*args)[1:])
    with pytest.raises(NonBijective):
        full_isomorphism(A, seed=0)


def test_blocks_sorted_by_size_then_degree():
    A, _ = scramble(
        direct_sum(
            [
                matrix_algebra(5, 2).algebra,
                build_planted([(1, 2)], 5).algebra,
                matrix_algebra(5, 1).algebra,
            ]
        ),
        seed=3,
    )
    res = full_isomorphism(A, seed=0)
    shapes = [(b.n, b.D.degree) for b in res.blocks]
    assert shapes == [(1, 1), (1, 2), (2, 1)]


def test_apply_iso_respects_products():
    rng = random.Random(17)
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=2)
    res = full_isomorphism(A, seed=0)
    for _ in range(12):
        x = np.array([rng.randrange(5) for _ in range(A.dim)])
        y = np.array([rng.randrange(5) for _ in range(A.dim)])
        lhs = apply_iso(res, A.mul_vec(x, y))
        rhs = target_multiply(A, res, apply_iso(res, x), apply_iso(res, y))
        for gl, gr in zip(lhs, rhs):
            for rl, rr in zip(gl, gr):
                for el, er in zip(rl, rr):
                    assert el.tolist() == er.tolist()


def test_iso_inverse_pulls_units_back():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    done = entry_one(A, blk)
    zero = np.zeros(blk.D.degree, dtype=int)
    grid = [[done, zero], [zero, zero]]  # elementary E11 in the target
    flat = flatten(res, [grid])
    back = matmul_mod(res.iso_inverse, flat[:, None], 7)[:, 0]
    assert back.tolist() == blk.units[0][0].tolist()


def test_flatten_unflatten_round_trip():
    A = c3()
    res = full_isomorphism(A, seed=0)
    flat = np.array([1, 2, 3])
    assert flatten(res, unflatten(res, flat)).tolist() == [1, 2, 3]
    with pytest.raises(ShapeMismatch):
        flatten(res, [[[np.zeros(1, dtype=int)]]])  # one block missing


def test_flatten_refuses_non_integer_cells():
    A = c3()
    res = full_isomorphism(A, seed=0)
    assert [(b.n, b.D.degree) for b in res.blocks] == [(1, 1), (1, 2)]
    # once truncated silently to [1, 2, 0]
    with pytest.raises(ShapeMismatch, match="block 0 grid must hold integers"):
        flatten(res, [[[[1.7]]], [[[2.9, 0.5]]]])
    with pytest.raises(ShapeMismatch, match="block 1 grid must hold integers"):
        flatten(res, [[[[1]]], [[["2", "0"]]]])
    with pytest.raises(ShapeMismatch):
        target_multiply(A, res, [[[[1]]], [[[2.5, 0]]]], [[[[1]]], [[[1, 0]]]])
    assert flatten(res, [[[[1]]], [[[7, -1]]]]).tolist() == [1, 2, 4]
    # an element of A is parsed the same way: once truncated to [1, 0, 0]
    with pytest.raises(ShapeMismatch, match="element must hold integers"):
        apply_iso(res, [1.7, 0.2, 0.9])
    with pytest.raises(ShapeMismatch, match="element must hold integers, not booleans"):
        apply_iso(res, [1, True, 0])
    with pytest.raises(ShapeMismatch, match="element has shape"):
        apply_iso(res, [1, 2])


def test_round_trip_at_the_largest_modulus():
    # p = 2^31 - 1, the largest modulus: products of two residues come
    # near 2^62, in the splitting stage and in every matmul_mod
    p = 2**31 - 1
    spec = [(3, 1), (2, 2), (1, 3)]
    A, _ = scramble(build_planted(spec, p).algebra, seed=0)
    res = full_isomorphism(A, seed=0)
    assert sorted((b.n, b.D.degree) for b in res.blocks) == sorted(spec)
    assert verify_isomorphism(A, res).passed


def test_codomain_is_associative_and_verifies():
    from wedderburn import make_presentation

    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=1)
    res = full_isomorphism(A, seed=0)
    target = codomain_algebra(A, res)
    # re-validate the generated presentation from scratch at full strength
    make_presentation(5, target.sc, identity=target.one)
    rep = verify_isomorphism(A, res)
    assert rep.passed and rep.multiplicative is True


def test_verification_has_no_fast_level():
    A = c3()
    res = full_isomorphism(A, seed=0)
    with pytest.raises(ValueError, match="all-pairs"):
        verify_isomorphism(A, res, check_multiplicative=False)
    assert verify_isomorphism(A, res, check_multiplicative=True).passed


def test_verify_catches_corrupted_units():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    # corrupt one unit: the iso matrix is untouched, but the units are part
    # of the certificate
    bad = copy.deepcopy(res)
    bad.blocks[0].units[0][1] = (blk.units[0][1] + A.one) % 7
    rep = verify_isomorphism(A, bad)
    assert not rep.passed
    assert "block 0: matrix unit (0,1) does not map to E[0,1]" in rep.failures
    # a corrupted iso row no longer matches the connecting elements
    worse = copy.deepcopy(res)
    worse.iso[2] = (worse.iso[2] + 1) % 7
    rep = verify_isomorphism(A, worse)
    assert not rep.passed
    assert rep.failures  # at least one witness recorded


# -- report documents -------------------------------------------------------------


def test_report_doc_round_trip_clean():
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=4)
    res = full_isomorphism(A, seed=0)
    ver = verify_isomorphism(A, res)
    doc = result_to_doc(res, ver)
    assert verify_report_doc(A, doc) == []


def test_report_doc_catches_tampering():
    A = c3()
    res = full_isomorphism(A, seed=0)
    doc = result_to_doc(res, verify_isomorphism(A, res))

    tampered = copy.deepcopy(doc)
    tampered["iso_matrix"][0][0] = (tampered["iso_matrix"][0][0] + 1) % 5
    msgs = verify_report_doc(A, tampered)
    assert msgs and any("iso" in m for m in msgs)

    tampered = copy.deepcopy(doc)
    tampered["blocks"][0]["central_idempotent"] = [1, 1, 1]
    assert verify_report_doc(A, tampered)

    tampered = copy.deepcopy(doc)
    tampered["blocks"][0]["matrix_units"][0][0] = [0, 0, 1]
    assert verify_report_doc(A, tampered)

    # a report for a different algebra is refused outright
    other = matrix_algebra(5, 2).algebra
    from wedderburn.errors import InvalidDocument

    with pytest.raises(InvalidDocument):
        verify_report_doc(other, doc)


def test_report_doc_contains_the_contracted_fields():
    A = c3()
    res = full_isomorphism(A, seed=0)
    ver = verify_isomorphism(A, res)
    doc = result_to_doc(res, ver)
    assert doc["p"] == 5 and doc["dim"] == 3 and doc["seed"] == 0
    assert doc["verification"] == {
        "bijective": True,
        "unit": True,
        "multiplicative": True,
        "orthogonality": True,
    }
    for blk in doc["blocks"]:
        for key in (
            "n",
            "division_degree",
            "central_idempotent",
            "representative_idempotent",
            "connecting_a",
            "connecting_b",
            "matrix_units",
            "division_basis",
        ):
            assert key in blk, key
    assert doc["layout"][0] == [0, 0, 0, 0]


def _tamper(res, field):
    """Corrupt one certificate field of res in place; return the message the
    verifier must report.  Block 0 is M_1(F_{p^2}), block 1 is M_2(F_p)."""
    p, (b0, b1) = res.p, res.blocks
    if field == "a[mu]":
        b1.a[1] = b1.a[1] * 2 % p
        return "block 1: a[1] does not map to E[0,1]"
    if field == "b[mu]":
        b1.b[1] = b1.b[1] * 2 % p
        return "block 1: b[1] does not map to E[1,0]"
    if field == "a in corner":
        # a' = a + b keeps a'*b = rep and b*a' = e, but rep*a'*e = a
        b1.a[1] = (b1.a[1] + b1.b[1]) % p
        return "block 1: a[1] does not map to E[0,1]"
    if field == "b in corner":
        b1.b[1] = (b1.b[1] + b1.a[1]) % p
        return "block 1: b[1] does not map to E[1,0]"
    if field == "central":
        # the representative alone is a consistent block M_1(F_p), whose
        # member sum is not central
        b1.n, b1.a, b1.b = 1, b1.a[:1], b1.b[:1]
        b1.units, b1.c = b1.units[:1, :1], b1.rep.copy()
        return "block dimensions do not sum to the algebra dimension"
    if field == "orthogonal":
        res.blocks.append(copy.deepcopy(b1))
        return "block dimensions do not sum to the algebra dimension"
    if field == "sum to one":
        del res.blocks[0]
        return "block dimensions do not sum to the algebra dimension"
    if field == "unit":
        b1.units[0, 1] = (b1.units[0, 1] + 1) % p
        return "block 1: matrix unit (0,1) does not map to E[0,1]"
    if field == "central idempotent":
        b0.c = (b0.c + 1) % p
        return ("central idempotent of block 0 does not map to its block "
                "identity")
    if field == "representative":
        b0.rep = b0.rep * 2 % p
        return ("block 0: representative is not the identity of the "
                "division corner")
    if field == "division basis":
        b0.D.basis[1] = b0.D.basis[0]
        return "block 0: division basis is not independent"
    if field == "division basis replaced":
        b0.D = b0.D._replace(basis=b0.D.basis[::-1].copy())
        return "block 0: division basis row 0 does not map to E[0,0]*d_0"
    if field == "division basis mixed":
        # a generic invertible combination of the rows spans the same field
        # but has no unit column per row: its presentation is eliminated
        mixed = matmul_mod(np.array([[1, 1], [1, 2]]), b0.D.basis, p)
        assert linalg.unit_columns(mixed) is None
        b0.D = b0.D._replace(basis=mixed)
        return "block 0: division basis row 0 does not map to E[0,0]*d_0"
    if field == "iso row":
        res.iso[4] = (res.iso[4] + 1) % p  # layout row 4 is (1, 1, 0, 0)
        j = int(np.flatnonzero(res.iso_inverse.sum(axis=0) % p)[0])
        return f"iso * iso_inverse differs from the identity at (4,{j})"
    if field == "iso_inverse":
        res.iso_inverse[0, 0] = (res.iso_inverse[0, 0] + 1) % p
        i = int(np.flatnonzero(res.iso[:, 0])[0])
        return f"iso * iso_inverse differs from the identity at ({i},0)"
    if field == "layout":
        res.layout[[2, 3]] = res.layout[[3, 2]]
        return "layout row 2 is [1, 0, 1, 0], expected [1, 0, 0, 0]"
    raise ValueError(field)


@pytest.mark.parametrize("field", [
    "a[mu]", "b[mu]", "a in corner", "b in corner", "unit",
    "central idempotent", "central", "representative", "division basis",
    "division basis replaced", "division basis mixed", "orthogonal",
    "sum to one", "iso row", "iso_inverse", "layout",
])
def test_one_verifier_names_the_tampered_relation(field):
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    assert [(b.n, b.D.degree) for b in res.blocks] == [(1, 2), (2, 1)]
    bad = copy.deepcopy(res)
    message = _tamper(bad, field)
    ver = verify_isomorphism(A, bad)
    msgs = verify_report_doc(A, result_to_doc(bad, ver))
    assert message in msgs
    # the in-process verifier runs the same check on the same arrays
    assert ver.failures == msgs


def test_a_passing_check_ranks_no_division_basis(monkeypatch):
    # each entry field is presented off its unit columns; rank runs only to
    # word a refused presentation
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    ranked, real = [], linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda M, p: ranked.append(np.array(M)) or real(M, p))
    assert blocks.check(A, res) == []
    assert not any(np.array_equal(M, blk.D.basis)
                   for M in ranked for blk in res.blocks)
    bad = copy.deepcopy(res)
    assert _tamper(bad, "division basis") in [f.message
                                              for f in blocks.check(A, bad)]
    assert any(np.array_equal(M, bad.blocks[0].D.basis) for M in ranked)


def _kept_proof():
    """(A, result) where full_isomorphism keeps the pass of its check on
    the result: scrambled M_1(F_25) (+) M_2(F_5), dim 6."""
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 5).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    assert [(b.n, b.D.degree) for b in res.blocks] == [(1, 2), (2, 1)]
    assert res._proof is not None
    return A, res


def test_an_unchanged_result_reuses_the_kept_pass(monkeypatch):
    A, res = _kept_proof()
    calls = _spy(monkeypatch, "check")
    ver = verify_isomorphism(A, res)
    assert ver.passed and calls == []
    assert verify_report_doc(A, result_to_doc(res, ver)) == []
    assert calls == ["check"]


@pytest.mark.parametrize("field", [
    "iso row", "unit", "division basis", "division basis replaced",
    "division basis mixed", "orthogonal", "sum to one",
])
def test_a_result_changed_in_place_is_proved_again(monkeypatch, field):
    # no copy: the kept pass is of arrays that have since changed, so
    # verify_isomorphism runs check again and finds what the report
    # verifier finds
    A, res = _kept_proof()
    message = _tamper(res, field)
    calls = _spy(monkeypatch, "check")
    ver = verify_isomorphism(A, res)
    assert calls == ["check"]
    msgs = verify_report_doc(A, result_to_doc(res, ver))
    assert message in msgs and ver.failures == msgs


@pytest.mark.parametrize("how", ["deepcopy", "pickle", "second from_doc"])
def test_a_copy_or_another_algebra_is_proved_again(monkeypatch, how):
    A, res = _kept_proof()
    if how == "deepcopy":
        res = copy.deepcopy(res)
    elif how == "pickle":
        res = pickle.loads(pickle.dumps(res))
    else:
        A = from_doc(A.to_doc())
    assert (res._proof is None) == (how != "second from_doc")
    calls = _spy(monkeypatch, "check")
    ver = verify_isomorphism(A, res)
    assert calls == ["check"]
    assert ver.failures == verify_report_doc(A, result_to_doc(res, ver)) == []


@pytest.mark.parametrize("k", [0, 1])
def test_final_stage_multiplies_in_each_target_block(monkeypatch, k):
    # block k's entry field comes back as x o y = 2xy (identity 4 = 1/2 mod
    # 7): every earlier stage passes, and the images of 1, c_k and the
    # vectors that must map to E[mu,nu]*1_D fail with the multiplicativity
    # of the final stage.  A deep copy of the result drops the kept pass of
    # full_isomorphism's check, so the patched check runs
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = copy.deepcopy(full_isomorphism(A, seed=0))
    real = blocks._check_division_basis

    def rescaled(A, bi, blk, fail):
        D = real(A, bi, blk, fail)
        return Algebra(7, 2 * D.sc, identity=4 * D.one) if bi == k else D

    monkeypatch.setattr(blocks, "_check_division_basis", rescaled)
    ver = verify_isomorphism(A, res)
    n = res.blocks[k].n
    assert ver.failures == [
        "image of the identity is not the block identity",
        f"central idempotent of block {k} does not map to its block identity",
        f"block {k}: representative does not map to E[0,0]",
        *[f"block {k}: a[{mu}] does not map to E[0,{mu}]" for mu in range(n)],
        *[f"block {k}: b[{mu}] does not map to E[{mu},0]" for mu in range(n)],
        *[f"block {k}: matrix unit ({mu},{nu}) does not map to E[{mu},{nu}]"
          for mu in range(n) for nu in range(n)],
        "multiplicativity fails at basis pair (0,0)",
    ]
    assert ver.bijective
    assert not (ver.unit or ver.orthogonality or ver.multiplicative)


def _pair_defect_algebra():
    """(A, result, targets, B): scrambled M_2(F_7) (+) F_49, dim 6, its
    result and entry fields, and B, A with b_4 b_3 and b_5 b_0 moved, on
    which the first pair iso fails to multiply is (4, 3)."""
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    targets = [(blocks._entry_field(A, blk), blk.n) for blk in res.blocks]
    sc = A.sc.copy()
    sc[4, 3, 0] = (sc[4, 3, 0] + 1) % 7
    sc[5, 0, 2] = (sc[5, 0, 2] + 3) % 7
    return A, res, targets, Algebra(7, sc, identity=A.one, validate=False)


@pytest.mark.parametrize("step", [1, 2, 4, 5])
def test_all_pairs_in_several_row_blocks(monkeypatch, step):
    # the one-block run is the reference; a block of `step` rows i makes
    # pair_products read rows lo <= i < hi of the table
    A, res, targets, bad = _pair_defect_algebra()
    assert blocks._all_pairs(bad, res.iso, targets) == [(4, 3)]
    monkeypatch.setattr(blocks, "_PAIR_ENTRIES", step * A.dim * A.dim)
    blocks_seen = []
    pairs = Algebra.pair_products
    monkeypatch.setattr(Algebra, "pair_products", lambda self, M, lo=0, hi=None:
                        blocks_seen.append((lo, hi)) or pairs(self, M, lo, hi))
    assert blocks._all_pairs(A, res.iso, targets) == []
    assert blocks_seen == [(lo, min(lo + step, A.dim))
                           for lo in range(0, A.dim, step)]
    assert blocks.check(A, copy.deepcopy(res)) == []
    assert blocks._all_pairs(bad, res.iso, targets) == [(4, 3)]


def check_block_oracle(A, bi, blk, fail):
    """The block stage of relation_oracle: seven `products` calls, of which
    only the diagonals are compared, and the n^4 unit relations always."""
    p, rep, a, b, c = A.p, blk.rep, blk.a, blk.b, blk.c
    diag = np.arange(blk.n)
    if not np.array_equal(A.mul_vec(rep, rep), rep):
        fail(f"block {bi}: representative is not idempotent")
    if not (np.array_equal(a[0], rep) and np.array_equal(b[0], rep)):
        fail(f"block {bi}: a[0], b[0] differ from the representative")
    ba = A.products(b, a)
    e = ba[diag, diag]
    rep_a = A.products(rep[None], a)[0]
    e_b = A.products(e, b)[diag, diag]
    for got, want, what in (
        (A.products(a, b)[diag, diag], rep, "a[{0}]*b[{0}] != representative"),
        (A.products(e, e)[diag, diag], e, "b[{0}]*a[{0}] is not idempotent"),
        (A.products(rep_a, e)[diag, diag], a, "a[{0}] is not in rep*A*e[{0}]"),
        (A.products(e_b, rep[None])[:, 0], b, "b[{0}] is not in e[{0}]*A*rep"),
    ):
        for mu in np.flatnonzero((got != want).any(axis=1)):
            fail(f"block {bi}: " + what.format(mu))
    for mu, nu in np.argwhere((blk.units != ba).any(axis=2)):
        fail(f"block {bi}: matrix unit ({mu},{nu}) != b[{mu}]*a[{nu}]")
    if not delta_oracle(A, blk.units):
        fail(f"block {bi}: unit relations fail")
    if not np.array_equal(e.sum(axis=0) % p, c):
        fail(f"block {bi}: central idempotent is not the member sum")
    if not np.array_equal(A.lmat(c), A.rmat(c)):
        fail(f"block {bi}: central idempotent is not central")
    return e


def relation_oracle(A, cert):
    """Every relation of the certificate proved inside A, stage by stage:
    the block relations (the unit relations by delta_oracle), the entry
    fields, the parts and the layout, the iso rows against the witness
    matrix, then the map with every stage in full.  The reference for the
    set of certificates that `check` accepts."""
    p, n = A.p, A.dim
    fails = []

    def fail(message, relation="certificate"):
        fails.append(blocks.Failure(relation, message))

    members = [check_block_oracle(A, bi, blk, fail)
               for bi, blk in enumerate(cert.blocks)]
    fields = [blocks._check_division_basis(A, bi, blk, fail)
              for bi, blk in enumerate(cert.blocks)]
    if fails:
        return fails
    labels = [f"({bi},{mu})" for bi, blk in enumerate(cert.blocks)
              for mu in range(blk.n)]
    E = np.concatenate(members)
    if not np.array_equal(E.sum(axis=0) % p, A.one):
        fail("primitive parts do not sum to the identity")
    overlap = A.products(E, E).any(axis=2)
    for i, j in np.argwhere(np.triu(overlap | overlap.T, 1)):
        fail(f"parts {labels[i]} and {labels[j]} are not orthogonal")
    layout = blocks._layout((blk.n, blk.D.degree) for blk in cert.blocks)
    if len(layout) != n:
        fail("block dimensions do not sum to the algebra dimension")
    elif cert.layout.shape != layout.shape:
        fail(f"layout has {len(cert.layout)} rows, expected {n}")
    else:
        for r in np.flatnonzero((cert.layout != layout).any(axis=1))[:1]:
            fail(f"layout row {r} is {cert.layout[r].tolist()}, "
                 f"expected {layout[r].tolist()}")
    if fails:
        return fails
    eye = np.eye(n, dtype=np.int64)
    W = blocks._witness(A, cert.blocks, [A.left(blk.b) for blk in cert.blocks])
    iso_W = matmul_mod(cert.iso, W, p)
    wrong = (iso_W != eye).any(axis=1)
    for bi, mu, nu in dict.fromkeys(map(tuple, layout[wrong, :3].tolist())):
        fail(f"iso_matrix rows for block {bi} entry ({mu},{nu}) do not "
             "match the connecting elements")
    if fails:
        return fails
    rings = [matrix_ring(D, blk.n) for blk, D in zip(cert.blocks, fields)]
    one = np.concatenate([R.one for R in rings])
    iso, inv = cert.iso, cert.iso_inverse
    for name, prod in (("iso * iso_inverse", matmul_mod(iso, inv, p)),
                       ("iso_inverse * iso", matmul_mod(inv, iso, p))):
        for i, j in np.argwhere(prod != eye)[:1]:
            fail(f"{name} differs from the identity at ({i},{j})", "bijective")
    if not np.array_equal(matmul_mod(iso, A.one[:, None], p)[:, 0], one):
        fail("image of the identity is not the block identity", "unit")
    images = matmul_mod(iso, np.array([blk.c for blk in cert.blocks]).T, p)
    for bi in range(len(cert.blocks)):
        block_one = np.where(layout[:, 0] == bi, one, 0)
        if not np.array_equal(images[:, bi], block_one):
            fail(f"central idempotent of block {bi} does not map to its "
                 "block identity", "orthogonality")
    left = matmul_mod(A.sc.reshape(n * n, n), iso.T, p).reshape(n, n, n)
    differ, row = np.zeros((n, n), dtype=bool), 0
    for R in rings:
        rows = iso[row:row + R.dim].T
        differ |= (left[:, :, row:row + R.dim] != R.products(rows, rows)).any(axis=2)
        row += R.dim
    for i, j in np.argwhere(differ)[:1]:
        fail(f"multiplicativity fails at basis pair ({i},{j})", "multiplicative")
    return fails


def check_oracle(A, cert):
    """`blocks.check` with every stage run in full, the reference for its
    one image product and its cheap proof of multiplicativity: each
    certificate vector mapped alone by apply_iso and compared with entry
    grids built from entry_one, and multiplicativity on all dim^2 basis
    pairs, each block's products taken in its matrix_ring."""
    p, n = A.p, A.dim
    fails = []

    def fail(message, relation="certificate"):
        fails.append(blocks.Failure(relation, message))

    fields = [blocks._check_division_basis(A, bi, blk, fail)
              for bi, blk in enumerate(cert.blocks)]
    layout = blocks._layout((blk.n, blk.D.degree) for blk in cert.blocks)
    if len(layout) != n:
        fail("block dimensions do not sum to the algebra dimension")
    elif cert.layout.shape != layout.shape:
        fail(f"layout has {len(cert.layout)} rows, expected {n}")
    else:
        for r in np.flatnonzero((cert.layout != layout).any(axis=1))[:1]:
            fail(f"layout row {r} is {cert.layout[r].tolist()}, "
                 f"expected {layout[r].tolist()}")
    if fails:
        return fails
    eye = np.eye(n, dtype=np.int64)
    for i, j in np.argwhere(matmul_mod(cert.iso, cert.iso_inverse, p) != eye)[:1]:
        fail(f"iso * iso_inverse differs from the identity at ({i},{j})", "bijective")
    if fails:
        return fails
    ones = [entry_one(A, blk) for blk in cert.blocks]

    def image(x, cells, message, relation="certificate"):
        """Fail unless iso(x) holds cells[(block, mu, nu)] and zeros elsewhere."""
        got = apply_iso(cert, x)
        for bi, blk in enumerate(cert.blocks):
            for mu in range(blk.n):
                for nu in range(blk.n):
                    want = cells.get((bi, mu, nu), np.zeros(blk.D.degree, dtype=int))
                    if got[bi][mu][nu].tolist() != want.tolist():
                        return fail(message, relation)

    image(A.one, {(bi, mu, mu): ones[bi] for bi, blk in enumerate(cert.blocks)
                  for mu in range(blk.n)},
          "image of the identity is not the block identity", "unit")
    for bi, blk in enumerate(cert.blocks):
        image(blk.c, {(bi, mu, mu): ones[bi] for mu in range(blk.n)},
              f"central idempotent of block {bi} does not map to its block "
              "identity", "orthogonality")
    for bi, blk in enumerate(cert.blocks):
        one = ones[bi]
        image(blk.rep, {(bi, 0, 0): one},
              f"block {bi}: representative does not map to E[0,0]")
        for mu in range(blk.n):
            image(blk.a[mu], {(bi, 0, mu): one},
                  f"block {bi}: a[{mu}] does not map to E[0,{mu}]")
        for mu in range(blk.n):
            image(blk.b[mu], {(bi, mu, 0): one},
                  f"block {bi}: b[{mu}] does not map to E[{mu},0]")
        for mu in range(blk.n):
            for nu in range(blk.n):
                image(blk.units[mu, nu], {(bi, mu, nu): one},
                      f"block {bi}: matrix unit ({mu},{nu}) does not map to "
                      f"E[{mu},{nu}]")
        for t in range(blk.D.degree):
            image(blk.D.basis[t], {(bi, 0, 0): np.eye(blk.D.degree, dtype=int)[t]},
                  f"block {bi}: division basis row {t} does not map to E[0,0]*d_{t}")
    rings = [matrix_ring(D, blk.n) for blk, D in zip(cert.blocks, fields)]
    iso = cert.iso
    left = matmul_mod(A.sc.reshape(n * n, n), iso.T, p).reshape(n, n, n)
    differ, row = np.zeros((n, n), dtype=bool), 0
    for R in rings:
        rows = iso[row:row + R.dim].T
        differ |= (left[:, :, row:row + R.dim] != R.products(rows, rows)).any(axis=2)
        row += R.dim
    for i, j in np.argwhere(differ)[:1]:
        fail(f"multiplicativity fails at basis pair ({i},{j})", "multiplicative")
    return fails


def _tamper_drawn(A, res, draw):
    """One drawn corruption of res in place: an entry of a, b, a matrix
    unit, c, rep, iso or iso_inverse moved by a nonzero delta, or a row of
    a or b in the largest block plus a multiple of another row (the units
    kept, or recomputed from the new a and b)."""
    p, dim = A.p, A.dim
    kind = draw(st.sampled_from(["a", "b", "units", "c", "rep", "iso",
                                 "iso_inverse", "mix"]))
    delta = draw(st.integers(1, p - 1))
    if kind in ("iso", "iso_inverse"):
        M = getattr(res, kind)
    elif kind == "mix":
        blk = max(res.blocks, key=lambda blk: blk.n)
        M = getattr(blk, draw(st.sampled_from(["a", "b"])))
        mu, nu = draw(st.integers(0, blk.n - 1)), draw(st.integers(0, blk.n - 1))
        M[mu] = (M[mu] + delta * M[nu]) % p
        if draw(st.booleans()):
            blk.units = blocks.matrix_units(A, blk.a, A.left(blk.b))
        return
    else:
        blk = res.blocks[draw(st.integers(0, len(res.blocks) - 1))]
        M = getattr(blk, kind).reshape(-1, dim)
    i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, dim - 1))
    M[i, j] = (M[i, j] + delta) % p


@functools.lru_cache(maxsize=None)
def _report_case(p):
    A, res = _iso_case(p)
    return A, result_to_doc(res, verify_isomorphism(A, res))


@pytest.mark.parametrize("p", [7, 97, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_check_names_what_the_full_check_names(p, data):
    # the cheap proofs stand in for full stages only where those would pass.
    # The certificate is parsed from its report, as verify sees it
    A, doc = _report_case(p)
    bad = blocks._parse_certificate(A, doc)
    _tamper_drawn(A, bad, data.draw)
    assert blocks.check(A, bad) == check_oracle(A, bad)


def _tamper_division_basis(A, res, draw):
    """One entry of a drawn block's division basis moved by a nonzero delta."""
    blk = res.blocks[draw(st.integers(0, len(res.blocks) - 1))]
    t, j = draw(st.integers(0, blk.D.degree - 1)), draw(st.integers(0, A.dim - 1))
    blk.D.basis[t, j] = (blk.D.basis[t, j] + draw(st.integers(1, A.p - 1))) % A.p


@pytest.mark.parametrize("p", [7, 97, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_check_accepts_what_the_relation_stages_accept(p, data):
    # check reads every relation off the isomorphism, relation_oracle proves
    # each inside A: the same certificates pass both
    A, doc = _report_case(p)
    bad = blocks._parse_certificate(A, doc)
    how = data.draw(st.sampled_from(["none", "drawn", "division basis"]))
    if how == "drawn":
        _tamper_drawn(A, bad, data.draw)
    elif how == "division basis":
        _tamper_division_basis(A, bad, data.draw)
    assert bool(blocks.check(A, bad)) == bool(relation_oracle(A, bad))
    assert bool(blocks.check(A, bad)) == (how != "none")


def test_frobenius_image_of_the_division_basis_is_refused():
    # d -> d^7 is an automorphism of block 0's entry field F_49: the basis
    # it gives presents the same table with the same identity, so every
    # entry-field test and multiplicativity pass, and only the images of
    # the division basis can see it
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    bad = full_isomorphism(A, seed=0)
    blk = bad.blocks[0]
    assert (blk.n, blk.D.degree) == (1, 2)
    frobenius = np.array([functools.reduce(A.mul_vec, [d] * 7) for d in blk.D.basis])
    assert (frobenius != blk.D.basis).any(axis=1).all()
    field, image = (A.subalgebra(B, blk.rep) for B in (blk.D.basis, frobenius))
    assert np.array_equal(field.sc, image.sc) and np.array_equal(field.one, image.one)
    blk.D = blk.D._replace(basis=frobenius)
    fails = blocks.check(A, bad)
    assert fails == check_oracle(A, bad)
    assert [f.message for f in fails] == [
        "block 0: division basis row 0 does not map to E[0,0]*d_0",
        "block 0: division basis row 1 does not map to E[0,0]*d_1",
    ]
    assert relation_oracle(A, bad)


def test_block_fields_hold_their_own_arrays():
    # e = c for a block of n = 1, but as a copy: an in-place edit of c is
    # seen by the check as a bad central idempotent, and by nothing else
    A, _ = scramble(build_planted([(2, 1), (1, 2), (1, 1)], 7).algebra, seed=4)
    res = full_isomorphism(A, seed=0)
    assert [blk.n for blk in res.blocks].count(1) == 2
    for bi, blk in enumerate(res.blocks):
        fields = [blk.rep, blk.c, blk.a, blk.b, blk.units, blk.D.basis]
        for i, x in enumerate(fields):
            assert not any(np.shares_memory(x, y) for y in fields[i + 1 :])
        bad = copy.deepcopy(res)
        c = bad.blocks[bi].c
        c[0] = (c[0] + 1) % 7
        fails = blocks.check(A, bad)
        assert fails and fails == check_oracle(A, bad)
        assert all("central idempotent" in f.message for f in fails), fails


def test_off_diagonal_pairing_fails_the_unit_relations():
    # a[1] + a[0] pairs with b[1] to rep and lies in rep*A, but it pairs
    # with b[0] to rep as well; with the units recomputed from it every
    # diagonal relation holds, but a[1] and the units b[mu]*a[1] map off
    # their standard elements
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    bad = full_isomorphism(A, seed=0)
    blk = bad.blocks[1]
    blk.a[1] = (blk.a[1] + blk.a[0]) % 7
    blk.units = blocks.matrix_units(A, blk.a, A.left(blk.b))
    fails = blocks.check(A, bad)
    assert fails == check_oracle(A, bad)
    assert [f.message for f in fails] == [
        "block 1: a[1] does not map to E[0,1]",
        "block 1: matrix unit (0,1) does not map to E[0,1]",
        "block 1: matrix unit (1,1) does not map to E[1,1]",
    ]


def test_tampered_iso_inverse_column_is_named():
    A, res = _iso_case(97)
    bad = copy.deepcopy(res)
    bad.iso_inverse[:, 3] = (bad.iso_inverse[:, 3] + 1) % 97
    fails = blocks.check(A, bad)
    assert fails == check_oracle(A, bad)
    assert fails == [
        ("bijective", "iso * iso_inverse differs from the identity at (0,3)"),
    ]


def test_another_presentation_of_the_entry_field_fails_multiplicativity(monkeypatch):
    # block 0's entry field F_49 comes back transported along x -> x P, a
    # linear bijection that fixes its identity but is no field automorphism:
    # the unit and every other stage pass, so only multiplicativity fails
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    real = blocks._check_division_basis

    def transported(A, bi, blk, fail):
        D = real(A, bi, blk, fail)
        if bi:
            return D
        assert D.one.tolist() == [5, 5]
        P = np.array([[2, 0], [6, 1]])  # I + (1, -1)^T (1, 0): fixes (5, 5)
        prods = np.einsum("sa,tb,abc->stc", P, P, D.sc) % 7
        sc = np.einsum("stc,cu->stu", prods, linalg.inverse(P, 7)) % 7
        return Algebra(7, sc, identity=D.one, validate=False)

    monkeypatch.setattr(blocks, "_check_division_basis", transported)
    fails = blocks.check(A, res)
    assert fails == check_oracle(A, res)
    assert fails == [
        ("multiplicative", "multiplicativity fails at basis pair (0,0)")]


def _spy(monkeypatch, *names):
    """Record each call of the named blocks functions, in order."""
    calls = []
    for name in names:
        real = getattr(blocks, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(blocks, name, spy)
    return calls


def test_pair_products_run_on_a_proved_algebra(monkeypatch):
    # multiplicativity has one proof, every basis pair: check reads no
    # generators, so on a proved algebra whose closure generators are
    # garbage the clean certificate still runs one all-pairs stage and passes
    A, _ = scramble(build_planted([(2, 1), (1, 2), (3, 1)], 7).algebra, seed=2)
    res = full_isomorphism(A, seed=0)
    A.require_associative()
    A._generators = np.zeros((1, A.dim), dtype=np.int64)
    calls = _spy(monkeypatch, "_all_pairs")
    assert blocks.check(A, res) == []
    assert calls == ["_all_pairs"]


def test_pair_products_run_without_generators(monkeypatch):
    # an unvalidated presentation has no certificate generators, so every
    # basis pair is multiplied, and the clean certificate passes that too
    A, _ = scramble(build_planted([(2, 1), (1, 2), (3, 1)], 7).algebra, seed=2)
    res = full_isomorphism(A, seed=0)
    bare = Algebra(7, A.sc, identity=A.one, validate=False)
    assert not hasattr(bare, "_generators")
    calls = _spy(monkeypatch, "_all_pairs")
    assert blocks.check(bare, res) == []
    assert calls == ["_all_pairs"]

MALFORMED = {
    "connecting_a=5": ("report", ("blocks", 0, "connecting_a"), 5),
    "layout=7": ("report", ("layout",), 7),
    "n=true": ("report", ("blocks", 0, "n"), True),
    "division_basis=1.5": ("report", ("blocks", 0, "division_basis", 0, 0), 1.5),
    "iso_matrix=1.5": ("report", ("iso_matrix", 0, 0), 1.5),
    "blocks=5": ("report", ("blocks",), 5),
    "structure_constant=1.5": ("algebra", ("structure_constants", 0, 0, 0), 1.5),
    "identity=1.5": ("algebra", ("identity", 0), 1.5),
    # numpy reads [1, true] as [1, 1]; the parser must see the boolean
    "structure_constant=true": ("algebra", ("structure_constants", 0, 0, 0), True),
    "identity=true": ("algebra", ("identity", 0), True),
    "iso_matrix=true": ("report", ("iso_matrix", 0, 0), True),
}


@pytest.mark.parametrize("target, path, value", MALFORMED.values(), ids=MALFORMED)
def test_malformed_fields_are_invalid_documents(target, path, value):
    A = c3()
    res = full_isomorphism(A, seed=0)
    docs = {"algebra": A.to_doc(),
            "report": result_to_doc(res, verify_isomorphism(A, res))}
    node = docs[target]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InvalidDocument):
        verify_report_doc(from_doc(docs["algebra"]), docs["report"])


def _pop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _set(value, *path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


STRICT = {
    "seed missing": _pop("seed"),
    "seed=x": _set("x", "seed"),
    "seed=true": _set(True, "seed"),
    "seed=1.5": _set(1.5, "seed"),
    "verification missing": _pop("verification"),
    "verification=list": _set([True] * 4, "verification"),
    "one flag only": _set({"bijective": False}, "verification"),
    "extra flag": _set({"bijective": True, "unit": True, "multiplicative": True,
                        "orthogonality": True, "exact": True}, "verification"),
    "flag=1": _set(1, "verification", "unit"),
    "flag=null": _set(None, "verification", "orthogonality"),
}


@pytest.mark.parametrize("mutate", STRICT.values(), ids=STRICT)
def test_report_seed_and_flags_are_parsed_strictly(mutate):
    A = c3()
    res = full_isomorphism(A, seed=0)
    doc = result_to_doc(res, verify_isomorphism(A, res))
    mutate(doc)
    with pytest.raises(InvalidDocument):
        verify_report_doc(A, doc)


def test_report_flags_must_agree_with_the_check():
    A = c3()
    res = full_isomorphism(A, seed=0)
    doc = result_to_doc(res, verify_isomorphism(A, res))
    doc["seed"] = 12345  # any integer seed: the certificate does not depend on it
    assert verify_report_doc(A, doc) == []
    assert blocks._parse_certificate(A, doc).seed == 12345
    doc["verification"]["bijective"] = False
    assert verify_report_doc(A, doc) == [
        "report flag bijective is false, but the check finds true"]
    # a broken inverse under a report that claims bijectivity: the named
    # relation, then the flag that disagrees with it
    doc = result_to_doc(res, verify_isomorphism(A, res))
    doc["iso_inverse"][0][0] = (doc["iso_inverse"][0][0] + 1) % 5
    msgs = verify_report_doc(A, doc)
    assert msgs[-1] == "report flag bijective is true, but the check finds false"
    assert msgs[0].startswith("iso * iso_inverse differs from the identity")


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_report_parses_back_to_the_result(p):
    A, _ = scramble(build_planted([(2, 1), (1, 2)], p).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    parsed = blocks._parse_certificate(A, result_to_doc(res, verify_isomorphism(A, res)))
    assert len(parsed.blocks) == len(res.blocks)
    for got, want in zip(parsed.blocks, res.blocks):
        assert (got.index, got.n, got.D.degree) == (want.index, want.n, want.D.degree)
        for name in ("rep", "c", "a", "b", "units"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.D.basis, want.D.basis)
    for name in ("iso", "iso_inverse", "layout"):
        assert np.array_equal(getattr(parsed, name), getattr(res, name)), name
    assert blocks.check(A, parsed) == blocks.check(A, res) == []
    # and the same failures once the certificate is broken
    _tamper(res, "unit")
    parsed = blocks._parse_certificate(A, result_to_doc(res, verify_isomorphism(A, res)))
    assert blocks.check(A, parsed) == blocks.check(A, res) != []


def _fuzz_case():
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    res = full_isomorphism(A, seed=0)
    return A, result_to_doc(res, verify_isomorphism(A, res))


FUZZ_ALGEBRA, FUZZ_REPORT = _fuzz_case()


def _paths(node, prefix=()):
    """Every key and list index of a JSON document, interior nodes included."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], prefix + (key,))


DELETE = object()
FUZZ_VALUES = [True, 1.5, "x", None, [], {}, -1, 2**63, 10**30, FUZZ_ALGEBRA.p, DELETE]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "a.json").write_text(cli.canonical_json(FUZZ_ALGEBRA.to_doc()))
    return folder / "a.json", folder / "r.json"


@given(st.sampled_from(list(_paths(FUZZ_REPORT))), st.sampled_from(FUZZ_VALUES))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_report_verifies_fails_or_is_invalid(fuzz_files, path, value):
    doc = copy.deepcopy(FUZZ_REPORT)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        assert isinstance(verify_report_doc(FUZZ_ALGEBRA, doc), list)
    except InvalidDocument:
        pass
    # the command line maps each outcome to its exit code, never a traceback
    alg, rpt = fuzz_files
    rpt.write_text(cli.canonical_json(doc))
    assert cli.main(["verify", str(alg), str(rpt)]) in (0, 1, 4)


@pytest.fixture(scope="module")
def algebra_fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("algebra_fuzz")
    (folder / "r.json").write_text(cli.canonical_json(FUZZ_REPORT))
    return folder / "a.json", folder / "r.json"


@given(st.sampled_from(["verify", "decompose"]),
       st.sampled_from(["structure_constants", "identity"]),
       st.integers(0, FUZZ_ALGEBRA.dim**3 - 1), st.integers(1, FUZZ_ALGEBRA.p - 1))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_algebra_never_verifies(algebra_fuzz_files, command, name, index,
                                        shift):
    # one structure constant or one identity entry moved, the valid report
    # kept: an iso that passes fixes every product b_i*b_j and the
    # identity, so no such document verifies.  Exactly the ones that
    # make_presentation refuses exit 4, since a failing verify runs the
    # certificate first; the others exit 1.  decompose, which runs the
    # certificate before every failure, exits 4 on the same documents, and
    # 0 only with a report that verify accepts
    doc = FUZZ_ALGEBRA.to_doc()
    flat = np.array(doc[name])
    flat.reshape(-1)[index % flat.size] += shift
    doc[name] = (flat % FUZZ_ALGEBRA.p).tolist()
    try:
        make_presentation(doc["p"], doc["structure_constants"], identity=doc["identity"])
        refused = False
    except (NotAssociative, NoIdentity):
        refused = True
    alg, rpt = algebra_fuzz_files
    alg.write_text(cli.canonical_json(doc))
    if command == "verify":
        assert cli.main(["verify", str(alg), str(rpt)]) == (4 if refused else 1)
        return
    own = rpt.with_name("own.json")
    own.unlink(missing_ok=True)
    code = cli.main(["decompose", str(alg), "--format", "structured", "-o", str(own)])
    assert (code == 4) == refused
    assert code in (0, 1, 2, 3, 4, 5)
    assert code != 0 or cli.main(["verify", str(alg), str(own)]) == 0


def _spy_certificate(monkeypatch):
    """Records the dimension of each algebra the certificate runs on."""
    events = []
    certify = Algebra._certify_associativity

    def spy(self):
        events.append(("certificate", self.dim))
        return certify(self)

    monkeypatch.setattr(Algebra, "_certify_associativity", spy)
    return events


def _spy_draws_and_closures(monkeypatch):
    """Records every random_vec draw, and (dim, generators) per closure."""
    draws, closures = [], []
    draw, closure = Algebra.random_vec, Algebra._closure

    def counted(self, rng):
        draws.append(self.dim)
        return draw(self, rng)

    def spy(self):
        gens = closure(self)
        closures.append((self.dim, gens))
        return gens

    monkeypatch.setattr(Algebra, "random_vec", counted)
    monkeypatch.setattr(Algebra, "_closure", spy)
    return draws, closures


def test_decomposition_builds_no_closure_on_a(monkeypatch):
    # the search reads the centre off a tested centraliser of draws, and
    # the passing check proves associativity: full_isomorphism on a pending
    # planted algebra above the draw cap never calls A._closure (the entry
    # fields' own certificates still run theirs)
    A, _ = scramble(build_planted([(3, 1), (2, 2), (1, 1)], 97).algebra, seed=1)
    _, closures = _spy_draws_and_closures(monkeypatch)
    assert A._pending and A.dim > A._draw_cap()
    res = full_isomorphism(A, seed=0)
    assert A.dim not in [dim for dim, _ in closures]
    assert not A._pending and not hasattr(A, "_generators")
    assert verify_isomorphism(A, res).passed


def test_passing_verify_of_a_document_runs_no_certificate(monkeypatch):
    # the passing check proves associativity from the isomorphism, and
    # marks A proved: every basis pair multiplied, and each entry field, of
    # degree 1 or 2 and so no larger than the closure's draw cap, by the
    # blocked check of all its basis triples, with no draw
    A = from_doc(FUZZ_ALGEBRA.to_doc())
    events = _spy_certificate(monkeypatch)
    blocked = Algebra._check_associativity
    monkeypatch.setattr(Algebra, "_check_associativity",
                        lambda self: events.append(("blocked", self.dim)) or blocked(self))
    draws, _ = _spy_draws_and_closures(monkeypatch)
    calls = _spy(monkeypatch, "_all_pairs")
    assert verify_report_doc(A, FUZZ_REPORT) == []
    assert calls == ["_all_pairs"]
    assert events == [(step, b["division_degree"]) for b in FUZZ_REPORT["blocks"]
                      for step in ("certificate", "blocked")]
    assert draws == []
    assert not A._pending and getattr(A, "_generators", None) is None


def test_entry_fields_up_to_the_draw_cap_are_proved_without_a_draw(monkeypatch):
    # at p = 97 the closure's draw cap is 4 for every dim up to 97, so
    # entry fields of degree 1-4 prove associativity by all their basis
    # triples: a passing verify of the pending algebra, in process or from
    # its documents, draws nothing and builds no closure.  full_isomorphism's
    # passing check marks A proved, so the in-process verify takes a
    # pending copy read from A's document
    A, _ = scramble(build_planted([(2, 1), (1, 2), (1, 3), (1, 4)], 97).algebra,
                    seed=1)
    res = full_isomorphism(A, seed=0)
    assert not A._pending
    doc = result_to_doc(res, verify_isomorphism(A, res))
    draws, closures = _spy_draws_and_closures(monkeypatch)
    assert verify_isomorphism(from_doc(A.to_doc()), res).passed
    assert verify_report_doc(from_doc(A.to_doc()), doc) == []
    assert draws == []
    assert sorted(dim for dim, _ in closures) == [1, 1, 2, 2, 3, 3, 4, 4]
    assert all(gens is None for _, gens in closures)
    # a degree-5 field is above the cap: its own certificate draws
    F, _ = scramble(build_planted([(1, 5)], 97).algebra, seed=1)
    res = full_isomorphism(F, seed=0)
    draws.clear()
    closures.clear()
    assert verify_isomorphism(from_doc(F.to_doc()), res).passed
    assert draws and set(draws) == {5}
    assert len(closures) == 1 and closures[0][0] == 5
    assert len(closures[0][1]) > 0


@pytest.mark.parametrize("how", ["failure", "flag", "exception"])
def test_failing_verify_of_a_document_runs_the_certificate_once_first(monkeypatch, how):
    report = copy.deepcopy(FUZZ_REPORT)
    if how == "failure":
        report["iso_matrix"][0][0] = (report["iso_matrix"][0][0] + 1) % FUZZ_ALGEBRA.p
    elif how == "flag":
        report["verification"]["unit"] = False
    else:
        report["layout"] = 7
    A = from_doc(FUZZ_ALGEBRA.to_doc())
    events = _spy_certificate(monkeypatch)
    real = blocks.check
    monkeypatch.setattr(blocks, "check",
                        lambda *args: events.append("check") or real(*args))
    def on_A():  # the entry fields' own certificates run inside check
        return [e for e in events if e == "check" or e[1] == A.dim]

    if how == "exception":
        with pytest.raises(InvalidDocument):
            verify_report_doc(A, report)
        assert on_A() == [("certificate", A.dim)]
    elif how == "flag":
        # the check itself passes and proves A associative: the wrong flag
        # is reported with no certificate
        msgs = verify_report_doc(A, report)
        assert msgs == ["report flag unit is false, but the check finds true"]
        assert on_A() == ["check"]
    else:
        msgs = verify_report_doc(A, report)
        assert msgs and on_A() == ["check", ("certificate", A.dim)]
    assert not A._pending
    assert (getattr(A, "_generators", None) is None) == (how == "flag")
    # proved once: a second failing verify runs no certificate
    events.clear()
    if how != "exception":
        assert verify_report_doc(A, report) == msgs and on_A() == ["check"]


@pytest.mark.parametrize("how", ["verify_isomorphism", "verify_report_doc"])
def test_a_passing_check_marks_a_document_proved(monkeypatch, how):
    # scrambled M_8(F_97), dim 64, read from its document: the passing
    # check proves it associative, so an entry point that needs that proof
    # afterwards runs no certificate on it
    M, _ = scramble(matrix_algebra(97, 8).algebra, seed=1)
    A = from_doc(M.to_doc())
    if how == "verify_isomorphism":
        res = full_isomorphism(A, seed=0)
        assert verify_isomorphism(A, res).passed
    else:
        res = full_isomorphism(M, seed=0)
        doc = result_to_doc(res, verify_isomorphism(M, res))
        assert verify_report_doc(A, doc) == []
    assert not A._pending
    on_A = []
    certify = Algebra._certify_associativity
    monkeypatch.setattr(Algebra, "_certify_associativity",
                        lambda self: on_A.append(self is A) or certify(self))
    assert radical_report(A).is_semisimple
    assert on_A == []


def _first_steps():
    """Entry points that rest on associativity, each for a pending algebra;
    full_isomorphism instead leaves the proof to the isomorphism."""
    C, degrees = idempotents.block_idempotents(FUZZ_ALGEBRA)
    return {
        "full_isomorphism": lambda A: full_isomorphism(A, seed=0),
        "radical_report": radical_report,
        "block_idempotents": idempotents.block_idempotents,
        "primitive_idempotent": lambda A: idempotents.primitive_idempotent(
            A, C[0], degrees[0], random.Random(0)),
        "center_basis": lambda A: A.center_basis(),
    }


class _Certified(Exception):
    pass


ENTRY_POINTS = ["full_isomorphism", "radical_report", "block_idempotents",
                "primitive_idempotent", "center_basis"]


def _certificate_comes_first(monkeypatch, name, A):
    step = _first_steps()[name]
    assert A._pending
    if name == "full_isomorphism":
        _passing_decomposition_runs_no_certificate(monkeypatch, A)
        return
    products = []
    matmul = linalg.matmul_mod
    monkeypatch.setattr(linalg, "matmul_mod",
                        lambda *args: products.append(1) or matmul(*args))

    def stop(self):
        raise _Certified

    # the certificate comes before any product of the entry point itself
    monkeypatch.setattr(Algebra, "_certify_associativity", stop)
    with pytest.raises(_Certified):
        step(A)
    assert products == []
    # once proved, the entry point does not prove it again
    monkeypatch.undo()
    events = _spy_certificate(monkeypatch)
    step(A)
    step(A)
    assert events == [("certificate", A.dim)]


def _passing_decomposition_runs_no_certificate(monkeypatch, A):
    # full_isomorphism's check proves the result, and with it A's
    # associativity: A's certificate never runs, and A is marked proved
    on_A = []
    certify = Algebra._certify_associativity
    monkeypatch.setattr(Algebra, "_certify_associativity",
                        lambda self: on_A.append(self is A) or certify(self))
    res = full_isomorphism(A, seed=0)
    assert verify_isomorphism(A, res).passed
    # the entry fields, pending too, run their own
    assert on_A and not any(on_A) and not A._pending


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_run_the_pending_certificate_first(monkeypatch, name):
    _certificate_comes_first(monkeypatch, name, from_doc(FUZZ_ALGEBRA.to_doc()))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_certify_a_generated_algebra_first(monkeypatch, name):
    # the same algebra as generated: the generators leave it pending too
    A, _ = scramble(build_planted([(2, 1), (1, 2)], 7).algebra, seed=3)
    _certificate_comes_first(monkeypatch, name, A)


def test_pending_entry_field_must_associate():
    # 1, x, y with x^2 = y^2 = 0 and x*y = y*x = x: unital and commutative,
    # but (x*y)*y = x while x*(y*y) = 0.  On a pending algebra the entry
    # field's own certificate fails, and verifying runs A's certificate
    sc = np.zeros((3, 3, 3), dtype=int)
    sc[0, :, :] = sc[:, 0, :] = np.eye(3, dtype=int)
    sc[1, 2, 1] = sc[2, 1, 1] = 1
    A = from_doc({"p": 5, "structure_constants": sc.tolist(), "identity": [1, 0, 0]})
    one, eye = [1, 0, 0], np.eye(3, dtype=np.int64)
    doc = {
        "p": 5, "dim": 3, "seed": 0,
        "blocks": [{"n": 1, "division_degree": 3, "representative_idempotent": one,
                    "central_idempotent": one, "connecting_a": [one],
                    "connecting_b": [one], "matrix_units": [[one]],
                    "division_basis": eye.tolist()}],
        "iso_matrix": eye.tolist(), "iso_inverse": eye.tolist(),
        "layout": [[0, 0, 0, t] for t in range(3)],
        "verification": dict.fromkeys(blocks._FLAGS, True),
    }
    cert = blocks._parse_certificate(A, doc)
    assert ("certificate", "block 0: division corner is not associative") in blocks.check(A, cert)
    with pytest.raises(NotAssociative) as info:
        verify_report_doc(A, doc)
    assert info.value.witness == (1, 2, 2)


def test_local_ring_is_not_accepted_as_division_field():
    # F_5[x]/(x^2) is commutative and x -> x^5 fixes only F_5, yet x is
    # nilpotent: a report presenting it as M_1(D), D a field, must fail
    from wedderburn import make_presentation

    sc = np.zeros((2, 2, 2), dtype=int)
    sc[0, 0, 0] = sc[0, 1, 1] = sc[1, 0, 1] = 1
    A = make_presentation(5, sc)
    one, eye = [1, 0], [[1, 0], [0, 1]]
    doc = {
        "p": 5, "dim": 2, "seed": 0,
        "blocks": [{
            "n": 1, "division_degree": 2, "central_idempotent": one,
            "representative_idempotent": one, "connecting_a": [one],
            "connecting_b": [one], "matrix_units": [[one]],
            "division_basis": eye,
        }],
        "iso_matrix": eye, "iso_inverse": eye,
        "layout": [[0, 0, 0, 0], [0, 0, 0, 1]],
        "verification": {"bijective": True, "unit": True,
                         "multiplicative": True, "orthogonality": True},
    }
    assert verify_report_doc(A, doc) == ["block 0: division corner is not a field"]


def test_doubled_representative_of_a_one_dimensional_field_is_refused():
    # block 0 is M_1(F_p): doubling its representative breaks every relation
    # of the block, and the entry field presented on it has "identity" 2,
    # which the entry-field stage refuses before the field test
    p = 2**31 - 1
    A, _ = scramble(build_planted([(2, 1), (1, 1)], p).algebra, seed=1)
    bad = full_isomorphism(A, seed=0)
    assert [(b.n, b.D.degree) for b in bad.blocks] == [(1, 1), (2, 1)]
    bad.blocks[0].rep = bad.blocks[0].rep * 2 % p
    assert [(f.relation, f.message) for f in blocks.check(A, bad)] == [
        ("certificate", "block 0: representative is not the identity of the "
                        "division corner"),
    ]
