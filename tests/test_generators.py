"""Fixture generators: Cayley tables, matrix algebras, sums, scrambles."""

import itertools

import numpy as np
import pytest

from wedderburn import (
    Algebra,
    build_planted,
    cayley_fixture,
    direct_sum,
    full_isomorphism,
    group_algebra,
    make_presentation,
    matrix_algebra,
    scramble,
    verify_isomorphism,
)
from wedderburn import cli
from wedderburn.errors import (
    InvalidCayley,
    ModulusMismatch,
    ReduciblePolynomial,
)
from wedderburn.generators import FIXTURE_NAMES, validate_cayley
from wedderburn.linalg import matmul_mod, rank


def oracle_group_axioms(doc):
    """Check the table is a group the slow way."""
    m, e, t = doc["order"], doc["identity"], doc["table"]
    for x in range(m):
        if t[x][e] != x or t[e][x] != x:
            return False
        if sorted(t[x]) != list(range(m)):
            return False
        if sorted(row[x] for row in t) != list(range(m)):
            return False
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    return False
    return all(any(t[x][y] == e for y in range(m)) for x in range(m))


def test_fixtures_are_groups():
    assert FIXTURE_NAMES == ("C2", "C3", "C4", "D4", "Q8", "S3")
    for name in FIXTURE_NAMES:
        doc = cayley_fixture(name)
        assert oracle_group_axioms(doc), name
    assert cayley_fixture("Q8")["order"] == 8
    with pytest.raises(InvalidCayley):
        cayley_fixture("A5")


def test_validate_cayley_rejects_broken_tables():
    good = cayley_fixture("C3")
    bad = {**good, "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}  # not a group
    with pytest.raises(InvalidCayley):
        validate_cayley(bad)
    with pytest.raises(InvalidCayley):
        validate_cayley({**good, "identity": 1})
    with pytest.raises(InvalidCayley):
        validate_cayley({**good, "table": [[0, 1], [1, 0]]})  # wrong shape
    # JSON booleans are not integers, though Python's bool is an int
    trivial = {"order": 1, "identity": 0, "table": [[0]]}
    for doc in ({**trivial, "order": True}, {**trivial, "identity": False},
                {"order": 2, "identity": 0, "table": [[False, True], [True, False]]}):
        with pytest.raises(InvalidCayley):
            validate_cayley(doc)


def test_cayley_tables_are_read_by_doc_array():
    # a table of the wrong form is refused in doc_array's words, exit 4 on
    # the command line; an integer outside [0, order) by the range check
    for table, message in [
        ([[0, 1, 0], [1, 0, 1]], "table has shape (2, 3), expected (2, 2)"),
        ([[0, 1], [1]], "table is not an integer array"),
        ([[False, True], [True, False]], "table must hold integers, not bool"),
        ([[0, 1], [1, 0.0]], "table must hold integers, not float64"),
        ([["0", "1"], ["1", "0"]], "table must hold integers, not <U1"),
        ({"0": [0, 1]}, "table must hold integers, not object"),
        ([[0, 1], [1, 2]], "table entries must be indices in range"),
        ([[0, -1], [1, 0]], "table entries must be indices in range"),
    ]:
        with pytest.raises(InvalidCayley) as exc:
            validate_cayley({"order": 2, "identity": 0, "table": table})
        assert str(exc.value) == message


def test_group_algebra_matches_table():
    doc = cayley_fixture("S3")
    A = group_algebra(doc, 7)
    assert A.dim == 6 and A.labels == [f"g{i}" for i in range(6)]
    t = doc["table"]
    for i in range(6):
        for j in range(6):
            e_i = np.eye(6, dtype=int)[i]
            e_j = np.eye(6, dtype=int)[j]
            prod = A.mul_vec(e_i, e_j)
            assert prod.tolist() == np.eye(6, dtype=int)[t[i][j]].tolist()


def test_matrix_algebra_elementary_products():
    P = matrix_algebra(5, 2)
    A = P.algebra
    assert P.spec == [(2, 1)]
    assert A.labels == ["E[0,0]", "E[0,1]", "E[1,0]", "E[1,1]"]
    E = {(a, b): np.eye(4, dtype=int)[2 * a + b] for a in range(2) for b in range(2)}
    for (a, b) in E:
        for (c, d) in E:
            got = A.mul_vec(E[a, b], E[c, d])
            want = E[a, d] if b == c else np.zeros(4, dtype=int)
            assert got.tolist() == want.tolist()


def test_matrix_algebra_over_extension():
    P = matrix_algebra(5, 1, ext_poly=[1, 1, 1])  # F_25 as an algebra over F_5
    A = P.algebra
    assert A.dim == 2
    # T * T = -1 - T per the defining polynomial
    assert A.mul_vec(np.array([0, 1]), np.array([0, 1])).tolist() == [4, 4]
    with pytest.raises(ReduciblePolynomial):
        matrix_algebra(5, 1, ext_poly=[4, 0, 1])  # T^2 - 4 = (T-2)(T+2)
    # M_2(F_25) on E[a,b]T^s in (a, b, s) order:
    # E[a,b]T^s * E[c,d]T^t = delta(b,c) E[a,d] (T^(s+t) mod f)
    P = matrix_algebra(5, 2, ext_poly=[1, 1, 1])
    A = P.algebra
    assert P.spec == [(2, 2)] and A.dim == 8
    residue = {0: [1, 0], 1: [0, 1], 2: [4, 4]}  # T^k mod T^2 + T + 1
    basis = dict(zip(itertools.product(range(2), repeat=3), np.eye(8, dtype=int)))
    for (a, b, s), x in basis.items():
        for (c, d, t), y in basis.items():
            want = np.zeros((2, 2, 2), dtype=int)
            if b == c:
                want[a, d] = residue[s + t]
            assert A.mul_vec(x, y).tolist() == want.reshape(-1).tolist()


def test_direct_sum_shape_and_identity():
    A = direct_sum([matrix_algebra(5, 2).algebra, matrix_algebra(5, 1).algebra])
    assert A.dim == 5
    assert A.one.tolist() == [1, 0, 0, 1, 1]
    assert A.labels[0].startswith("s0:") and A.labels[-1].startswith("s1:")
    # cross terms vanish
    x = np.array([1, 2, 3, 4, 0])
    y = np.array([0, 0, 0, 0, 2])
    assert not A.mul_vec(x, y)[:4].any()
    with pytest.raises(ModulusMismatch):
        direct_sum([matrix_algebra(5, 1).algebra, matrix_algebra(7, 1).algebra])


def test_build_planted_dims():
    for spec, dim in [([(1, 1)], 1), ([(2, 1)], 4), ([(1, 2)], 2), ([(2, 2)], 8),
                      ([(2, 1), (1, 2)], 6)]:
        P = build_planted(spec, 5)
        assert P.algebra.dim == dim
        assert P.spec == sorted(spec)


def test_scramble_round_trip():
    base = build_planted([(2, 1), (1, 2)], 7).algebra
    A, S = scramble(base, seed=42)
    assert rank(S, 7) == base.dim
    assert not np.array_equal(A.sc, base.sc)  # actually moved
    res = full_isomorphism(A, seed=0)
    assert sorted((b.n, b.D.degree) for b in res.blocks) == [(1, 2), (2, 1)]
    assert verify_isomorphism(A, res).passed


def test_scramble_is_seeded():
    base = matrix_algebra(5, 2).algebra
    A1, S1 = scramble(base, seed=1)
    A2, S2 = scramble(base, seed=1)
    A3, S3 = scramble(base, seed=2)
    assert S1.tolist() == S2.tolist() and np.array_equal(A1.sc, A2.sc)
    assert S1.tolist() != S3.tolist()


def test_scramble_transform_is_consistent():
    # multiplying two scrambled basis vectors agrees with conjugating by S
    base = group_algebra(cayley_fixture("C4"), 5)
    A, S = scramble(base, seed=8)
    p = 5
    for i in range(A.dim):
        for j in range(A.dim):
            # new basis vector i is column i of S in old coordinates
            old = base.mul_vec(S[:, i], S[:, j])
            new = A.mul_vec(np.eye(A.dim, dtype=int)[i], np.eye(A.dim, dtype=int)[j])
            assert matmul_mod(S, new[:, None], p)[:, 0].tolist() == old.tolist()


def spy_certificate(monkeypatch):
    """Records the dimension of each algebra the associativity certificate
    runs on."""
    dims = []
    certify = Algebra._certify_associativity

    def spy(self):
        dims.append(self.dim)
        return certify(self)

    monkeypatch.setattr(Algebra, "_certify_associativity", spy)
    return dims


GENERATED = {
    "matrix_algebra": lambda: matrix_algebra(7, 3).algebra,
    "matrix_algebra over F_49": lambda: matrix_algebra(7, 2, [3, 1, 1]).algebra,
    "group_algebra": lambda: group_algebra(cayley_fixture("S3"), 5),
    "build_planted, one part": lambda: build_planted([(3, 1)], 7).algebra,
    "scramble": lambda: scramble(matrix_algebra(7, 3).algebra, seed=1)[0],
}


@pytest.mark.parametrize("build", GENERATED.values(), ids=GENERATED)
def test_generators_hand_out_pending_presentations(monkeypatch, build):
    # a generated algebra is associative by construction: building it runs
    # no certificate, and the first entry point that rests on it runs one
    dims = spy_certificate(monkeypatch)
    A = build()
    assert dims == [] and A._pending
    A.center_basis()
    assert dims == [A.dim] and not A._pending


def test_direct_sum_proves_neither_its_parts_nor_the_sum(monkeypatch):
    parts = [matrix_algebra(5, 2).algebra, group_algebra(cayley_fixture("C3"), 5)]
    dims = spy_certificate(monkeypatch)
    S = direct_sum(parts)
    assert dims == [] and S._pending and all(part._pending for part in parts)
    # nor does build_planted, whose parts are associative by construction
    B = build_planted([(2, 1), (1, 2), (1, 1)], 5).algebra
    assert dims == [] and B._pending


def test_gen_matrix_scramble_runs_no_certificate(monkeypatch, tmp_path):
    dims = spy_certificate(monkeypatch)
    out = str(tmp_path / "m.json")
    argv = ["gen", "matrix", "-n", "4", "-p", "97", "--scramble", "--seed", "1",
            "-o", out]
    assert cli.main(argv) == 0
    assert dims == []


def test_make_presentation_runs_the_certificate_once(monkeypatch):
    A = scramble(matrix_algebra(7, 3).algebra, seed=1)[0]
    dims = spy_certificate(monkeypatch)
    B = make_presentation(7, A.sc, identity=A.one)
    assert dims == [9] and not B._pending and len(B._generators) > 0
    B.center_basis()  # proved once: the entry point does not prove it again
    assert dims == [9]


def validate_cayley_loops(doc):
    """validate_cayley's checks past the entry types as Python loops, in
    their order: rows and columns, the identity, then every triple."""
    m, ident, table = doc["order"], doc["identity"], doc["table"]
    for g in range(m):
        if sorted(table[g]) != list(range(m)):
            raise InvalidCayley(f"row {g} is not a permutation")
        if sorted(table[h][g] for h in range(m)) != list(range(m)):
            raise InvalidCayley(f"column {g} is not a permutation")
    for g in range(m):
        if table[ident][g] != g or table[g][ident] != g:
            raise InvalidCayley("declared identity is not an identity")
    for g in range(m):
        for h in range(m):
            for k in range(m):
                if table[table[g][h]][k] != table[g][table[h][k]]:
                    raise InvalidCayley(
                        f"associativity fails at triple ({g},{h},{k})"
                    )
    return m, ident, table


def cayley_verdict(validate, doc):
    try:
        m, ident, table = validate(doc)
    except InvalidCayley as exc:
        return str(exc)
    return m, ident, np.asarray(table).tolist()


def corrupted_tables():
    """Each fixture, and with the next index declared its identity; each
    with one entry moved to the next index; and each with the two symbols
    of an intercalate swapped (rows x, xz and columns u, zu for an
    involution z, away from the identity), which keeps a Latin square with
    the same identity but breaks associativity."""
    for name in FIXTURE_NAMES:
        doc = cayley_fixture(name)
        m, e, t = doc["order"], doc["identity"], doc["table"]
        yield doc
        yield {**doc, "identity": (e + 1) % m}
        for g, h in itertools.product(range(m), repeat=2):
            bad = [row[:] for row in t]
            bad[g][h] = (bad[g][h] + 1) % m
            yield {**doc, "table": bad}
        for z in range(m):
            if z == e or t[z][z] != e:
                continue
            for x, u in itertools.product(range(m), repeat=2):
                if e in (x, t[x][z], u, t[z][u]):
                    continue
                a, b = t[x][u], t[x][t[z][u]]
                bad = [row[:] for row in t]
                bad[x][u] = bad[t[x][z]][t[z][u]] = b
                bad[x][t[z][u]] = bad[t[x][z]][u] = a
                yield {**doc, "table": bad}


def test_vectorised_cayley_checks_match_the_loops():
    verdicts = [(cayley_verdict(validate_cayley, doc),
                 cayley_verdict(validate_cayley_loops, doc))
                for doc in corrupted_tables()]
    assert all(got == want for got, want in verdicts)
    # every branch is reached: rows, columns, identity, associativity
    seen = {want.split(" ")[0] if isinstance(want, str) else "group"
            for _, want in verdicts}
    assert seen == {"row", "column", "declared", "associativity", "group"}
    assert len({want for _, want in verdicts
                if isinstance(want, str) and want.startswith("assoc")}) > 10


def test_group_algebra_fills_the_cube_as_the_table_loop_did():
    for name in FIXTURE_NAMES:
        doc = cayley_fixture(name)
        m, t = doc["order"], doc["table"]
        sc = np.zeros((m, m, m), dtype=np.int64)
        for g in range(m):
            for h in range(m):
                sc[g, h, t[g][h]] = 1
        assert group_algebra(doc, 5).sc.tolist() == sc.tolist(), name
