"""Block assembly: grouping, units, entry maps, the global isomorphism."""

import copy
import random

import numpy as np
import pytest

from wedderburn import (
    build_planted,
    cayley_fixture,
    decompose_identity,
    direct_sum,
    from_doc,
    full_isomorphism,
    group_algebra,
    matrix_algebra,
    result_to_doc,
    scramble,
    verify_isomorphism,
    verify_report_doc,
)
from wedderburn import blocks
from wedderburn.blocks import (
    DivisionAlgebra,
    apply_iso,
    central_idempotent,
    codomain_algebra,
    flatten,
    group_by_equivalence,
    matrix_units,
    target_multiply,
    unflatten,
)
from wedderburn.errors import (
    EntryOutsideCorner,
    InvalidDocument,
    MatrixUnitViolation,
    ShapeMismatch,
)
from wedderburn.linalg import matmul_mod


def c3(p=5):
    return group_algebra(cayley_fixture("C3"), p)


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


# -- grouping and class data ---------------------------------------------------


def test_grouping_counts():
    for build, want in [
        (lambda: c3(5), [1, 1]),
        (lambda: c3(7), [1, 1, 1]),
        (lambda: matrix_algebra(7, 2).algebra, [2]),
        (lambda: group_algebra(cayley_fixture("S3"), 5), [1, 1, 2]),
    ]:
        A = build()
        fams = group_by_equivalence(A, decompose_identity(A, seed=0))
        assert sorted(len(f.members) for f in fams) == want


def test_family_orientation():
    A = matrix_algebra(7, 2).algebra
    fams = group_by_equivalence(A, decompose_identity(A, seed=0))
    assert len(fams) == 1
    fam = fams[0]
    rep = fam.rep.coords
    assert fam.a[0].tolist() == rep.tolist() and fam.b[0].tolist() == rep.tolist()
    for mu, member in enumerate(fam.members):
        e = member.coords
        assert A.mul_vec(fam.a[mu], fam.b[mu]).tolist() == rep.tolist()
        assert A.mul_vec(fam.b[mu], fam.a[mu]).tolist() == e.tolist()


def test_central_idempotents_of_f5c3():
    A = c3()
    res = full_isomorphism(A, seed=0)
    # trivial block: (1 + g + g^2)/3, and 1/3 = 2 mod 5
    assert [b.c.tolist() for b in res.blocks] == [[2, 2, 2], [4, 3, 3]]
    total = np.zeros(3, dtype=int)
    for b in res.blocks:
        total = (total + b.c) % 5
    assert total.tolist() == A.one.tolist()


def test_central_idempotent_rejects_broken_family():
    from wedderburn.errors import CentralityViolation

    A = matrix_algebra(7, 2).algebra
    fams = group_by_equivalence(A, decompose_identity(A, seed=0))
    fam = fams[0]
    broken = copy.copy(fam)
    broken.members = fam.members[:1]  # drop one member: sum is not central
    with pytest.raises(CentralityViolation):
        central_idempotent(A, broken)


def test_matrix_units_pass_delta_oracle():
    for A in (matrix_algebra(7, 2).algebra, scramble(matrix_algebra(5, 3).algebra, seed=1)[0]):
        res = full_isomorphism(A, seed=0)
        for blk in res.blocks:
            assert delta_oracle(A, blk.units.units)


def test_matrix_units_catch_corruption():
    A = matrix_algebra(7, 2).algebra
    fams = group_by_equivalence(A, decompose_identity(A, seed=0))
    fam = fams[0]
    c = central_idempotent(A, fam)
    bad = copy.copy(fam)
    bad.a = list(fam.a)
    bad.a[1] = (fam.a[1] * 2) % 7  # scales a without fixing b
    with pytest.raises(MatrixUnitViolation):
        matrix_units(A, bad, c)


def test_unit_relations_are_checked_on_the_units_themselves():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    doc = result_to_doc(res, verify_isomorphism(A, res))
    units = doc["blocks"][0]["matrix_units"]
    units[0][1], units[1][0] = units[1][0], units[0][1]
    # E[1,0] * E[0,1] = E[1,1], not the E[0,0] that (0,1)*(1,0) must give
    assert "block 0: unit relation (0,1)*(1,0) fails" in verify_report_doc(A, doc)


# -- the entry map ---------------------------------------------------------------

# the block map sends x to its per-block entry grids: apply_iso


def test_block_map_of_central_idempotent_is_identity_grid():
    A = c3()
    res = full_isomorphism(A, seed=0)
    for blk in res.blocks:
        grid = apply_iso(res, blk.c)[blk.index]
        done = blk.D.corner.algebra.one
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
    done = blk.D.corner.algebra.one
    for mu in range(blk.n):
        for nu in range(blk.n):
            grid = apply_iso(res, blk.units.units[mu][nu])[0]
            for s in range(blk.n):
                for t in range(blk.n):
                    want = done if (s, t) == (mu, nu) else np.zeros(
                        blk.D.degree, dtype=int
                    )
                    assert grid[s][t].tolist() == want.tolist()


def test_block_map_rejects_vectors_outside_the_corner(monkeypatch):
    # present the block on the corner of a non-representative member: the
    # sandwiches a[mu]*x*b[nu] lie in rep*A*rep, outside that corner
    def foreign_corner(A, family):
        corner = A.corner(family.members[-1].coords)
        return DivisionAlgebra(corner=corner, degree=corner.dim)

    monkeypatch.setattr(blocks, "division_presentation", foreign_corner)
    with pytest.raises(EntryOutsideCorner):
        full_isomorphism(matrix_algebra(7, 2).algebra, seed=0)


# -- the global isomorphism -------------------------------------------------------


def test_iso_is_invertible_and_layout_complete():
    A, _ = scramble(group_algebra(cayley_fixture("S3"), 5), seed=6)
    res = full_isomorphism(A, seed=0)
    eye = np.eye(A.dim, dtype=int)
    assert matmul_mod(res.iso, res.iso_inverse, 5).tolist() == eye.tolist()
    assert matmul_mod(res.iso_inverse, res.iso, 5).tolist() == eye.tolist()
    assert len(res.layout) == A.dim
    # layout rows are (block, mu, nu, t) in flattened order
    assert res.layout[0] == (0, 0, 0, 0)


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
        rhs = target_multiply(res, apply_iso(res, x), apply_iso(res, y))
        for gl, gr in zip(lhs, rhs):
            for rl, rr in zip(gl, gr):
                for el, er in zip(rl, rr):
                    assert el.tolist() == er.tolist()


def test_iso_inverse_pulls_units_back():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    done = blk.D.corner.algebra.one
    zero = np.zeros(blk.D.degree, dtype=int)
    grid = [[done, zero], [zero, zero]]  # elementary E11 in the target
    flat = flatten(res, [grid])
    back = matmul_mod(res.iso_inverse, flat[:, None], 7)[:, 0]
    assert back.tolist() == blk.units.units[0][0].tolist()


def test_flatten_unflatten_round_trip():
    A = c3()
    res = full_isomorphism(A, seed=0)
    flat = np.array([1, 2, 3])
    assert flatten(res, unflatten(res, flat)).tolist() == [1, 2, 3]
    with pytest.raises(ShapeMismatch):
        flatten(res, [[[np.zeros(1, dtype=int)]]])  # one block missing


def test_flatten_refuses_non_integer_cells():
    res = full_isomorphism(c3(), seed=0)
    assert [(b.n, b.D.degree) for b in res.blocks] == [(1, 1), (1, 2)]
    # once truncated silently to [1, 2, 0]
    with pytest.raises(ShapeMismatch, match="block 0 grid must hold integers"):
        flatten(res, [[[[1.7]]], [[[2.9, 0.5]]]])
    with pytest.raises(ShapeMismatch, match="block 1 grid must hold integers"):
        flatten(res, [[[[1]]], [[["2", "0"]]]])
    with pytest.raises(ShapeMismatch):
        target_multiply(res, [[[[1]]], [[[2.5, 0]]]], [[[[1]]], [[[1, 0]]]])
    assert flatten(res, [[[[1]]], [[[7, -1]]]]).tolist() == [1, 2, 4]


def test_round_trip_at_the_largest_modulus():
    # p = 2^31 - 1: the polynomial products of the splitting stage need
    # more than one int64 convolution pass there
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
    target = codomain_algebra(res)
    # re-validate the generated presentation from scratch at full strength
    make_presentation(5, target.sc, identity=target.one)
    rep = verify_isomorphism(A, res)
    assert rep.passed and rep.multiplicative is True


def test_fast_verification_skips_multiplicative():
    A = c3()
    res = full_isomorphism(A, seed=0)
    rep = verify_isomorphism(A, res, check_multiplicative=False)
    assert rep.multiplicative is None and rep.passed


def test_verify_catches_corrupted_units():
    A = matrix_algebra(7, 2).algebra
    res = full_isomorphism(A, seed=0)
    blk = res.blocks[0]
    # corrupt one unit: the iso matrix is untouched, but the units are part
    # of the certificate
    bad = copy.deepcopy(res)
    bad.blocks[0].units.units[0][1] = (blk.units.units[0][1] + A.one) % 7
    rep = verify_isomorphism(A, bad)
    assert not rep.passed
    assert "block 0: matrix unit (0,1) != b[0]*a[1]" in rep.failures
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
    verifier must report.  Block 0 is M_1(F_49), block 1 is M_2(F_7)."""
    b0, b1 = res.blocks
    if field == "a[mu]":
        b1.family.a[1] = b1.family.a[1] * 2 % 7
        return "block 1: a[1]*b[1] != representative"
    if field == "b[mu]":
        b1.family.b[1] = b1.family.b[1] * 2 % 7
        return "block 1: b[1]*a[1] is not idempotent"
    if field == "unit":
        b1.units.units[0, 1] = (b1.units.units[0, 1] + 1) % 7
        return "block 1: matrix unit (0,1) != b[0]*a[1]"
    if field == "central idempotent":
        b0.c = (b0.c + 1) % 7
        return "block 0: central idempotent is not the member sum"
    if field == "representative":
        b0.family.rep.coords = b0.family.rep.coords * 2 % 7
        return "block 0: representative is not idempotent"
    if field == "division basis":
        b0.D.corner.rows[1] = b0.D.corner.rows[0]
        return "block 0: division basis is not independent"
    if field == "iso row":
        res.iso[4] = (res.iso[4] + 1) % 7  # layout row 4 is (1, 1, 0, 0)
        return ("iso_matrix rows for block 1 entry (1,0) do not match the "
                "connecting elements")
    if field == "iso_inverse":
        res.iso_inverse[0, 0] = (res.iso_inverse[0, 0] + 1) % 7
        i = int(np.flatnonzero(res.iso[:, 0])[0])
        return f"iso * iso_inverse differs from the identity at ({i},0)"
    if field == "layout":
        res.layout[2], res.layout[3] = res.layout[3], res.layout[2]
        return "layout row 2 is [1, 0, 1, 0], expected [1, 0, 0, 0]"
    raise ValueError(field)


@pytest.mark.parametrize("field", [
    "a[mu]", "b[mu]", "unit", "central idempotent", "representative",
    "division basis", "iso row", "iso_inverse", "layout",
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
    }
    assert verify_report_doc(A, doc) == ["block 0: division corner is not a field"]
