"""Acceptance gate: the eight go/no-go checks, exact arithmetic, tolerance 0.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Every expected value here is either forced by construction
(planted fixtures) or derived from a brute-force oracle computed on the spot.
"""

import json
import time

import numpy as np
import pytest

from wedderburn import (
    build_planted,
    cayley_fixture,
    full_isomorphism,
    group_algebra,
    make_presentation,
    matrix_algebra,
    result_to_doc,
    scramble,
    verify_isomorphism,
)
from wedderburn.blocks import codomain_algebra
from wedderburn.errors import NotSemisimple
from wedderburn.linalg import matmul_mod

from oracles import hom_rows

PLANTED_SPECS = [
    [(1, 1)],
    [(2, 1)],
    [(3, 1)],
    [(1, 2)],
    [(2, 1), (1, 2)],
    [(1, 1), (1, 1), (2, 1)],
    [(2, 2)],
]
PRIMES = [5, 7, 97]
SCRAMBLE_SEEDS = [1, 2, 3]


def report(k, ok, desc):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {k} failed: {desc}"


def shape_multiset(result):
    return sorted((b.n, b.D.degree) for b in result.blocks)


def oracle_factor_linear_roots(coeffs, p):
    """All roots of the polynomial in F_p, by trying every element."""
    return [
        x
        for x in range(p)
        if sum(int(c) * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
    ]


def nilpotent_oracle(A, x):
    y = x % A.p
    for _ in range(A.dim + 1):
        if not y.any():
            return True
        y = A.mul_vec(y, y)
    return not y.any()


@pytest.fixture(scope="module")
def corpus():
    """Accepted fixtures reused by criteria 4-6, all of dimension <= 36."""
    items = []
    for spec in PLANTED_SPECS:
        for p in (5, 7):
            A, _ = scramble(build_planted(spec, p).algebra, seed=1)
            items.append((f"planted {spec} p={p} scrambled", A))
    items.append(("M_3(F_5)", matrix_algebra(5, 3).algebra))
    for name, p in [("C3", 7), ("C3", 5), ("S3", 5), ("C4", 5), ("Q8", 3), ("D4", 7)]:
        items.append((f"F_{p}[{name}]", group_algebra(cayley_fixture(name), p)))
    assert all(A.dim <= 36 for _, A in items)
    return items


def test_criterion_1_planted_round_trip():
    ok = True
    for spec in PLANTED_SPECS:
        for p in PRIMES:
            base = build_planted(spec, p).algebra
            for seed in SCRAMBLE_SEEDS:
                A, _ = scramble(base, seed=seed)
                res = full_isomorphism(A, seed=0)
                got = shape_multiset(res)
                if got != sorted(spec):
                    ok = False
                if not verify_isomorphism(A, res).passed:
                    ok = False
    report(1, ok, "7 planted specs x {5,7,97} x 3 scramble seeds round-trip")


def test_criterion_2_group_algebra_ground_truth():
    # resolve the F_5[C4] block count with the oracle before trusting it:
    # T^4 - 1 factors via its roots in F_5
    roots = oracle_factor_linear_roots([-1, 0, 0, 0, 1], 5)
    assert roots == [1, 2, 3, 4]  # splits completely: four linear factors
    expected = {
        ("C3", 7): [(1, 1), (1, 1), (1, 1)],
        ("C3", 5): [(1, 1), (1, 2)],
        ("S3", 5): [(1, 1), (1, 1), (2, 1)],
        ("C4", 5): [(1, 1)] * len(roots),
    }
    ok = True
    for (name, p), want in expected.items():
        A = group_algebra(cayley_fixture(name), p)
        res = full_isomorphism(A, seed=0)
        if shape_multiset(res) != sorted(want):
            ok = False
        if not verify_isomorphism(A, res).passed:
            ok = False
    report(2, ok, "group algebra block multisets match the factorization oracle")


def test_criterion_3_rejection_with_nilpotent_radical():
    sc = np.zeros((3, 3, 3), dtype=int)
    sc[0, 0, 0] = 1  # E11 E11
    sc[0, 1, 1] = 1  # E11 E12
    sc[1, 2, 1] = 1  # E12 E22
    sc[2, 2, 2] = 1  # E22 E22
    cases = [
        ("triangular over F_5", make_presentation(5, sc)),
        ("F_3[C3]", group_algebra(cayley_fixture("C3"), 3)),
    ]
    ok = True
    for label, A in cases:
        try:
            full_isomorphism(A, seed=0)
            ok = False  # should have been rejected
        except NotSemisimple as exc:
            basis = exc.radical_basis
            if len(basis) == 0:
                ok = False
            for el in basis:
                if not nilpotent_oracle(A, el):
                    ok = False
    report(3, ok, "non-semisimple inputs rejected, radical verified nilpotent")


def test_criterion_4_exhaustive_homomorphism(corpus):
    ok = True
    for label, A in corpus:
        res = full_isomorphism(A, seed=0)
        target = codomain_algebra(A, res)
        images = matmul_mod(res.iso, np.eye(A.dim, dtype=np.int64), A.p)
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.mul_vec(
                    np.eye(A.dim, dtype=np.int64)[i], np.eye(A.dim, dtype=np.int64)[j]
                )
                lhs = matmul_mod(res.iso, prod[:, None], A.p)[:, 0]
                rhs = target.mul_vec(images[:, i], images[:, j])
                if lhs.tolist() != rhs.tolist():
                    ok = False
    report(4, ok, "iso(b_i b_j) = iso(b_i) iso(b_j) for all pairs, dims <= 36")


def test_criterion_5_matrix_unit_relations(corpus):
    ok = True
    for label, A in corpus:
        res = full_isomorphism(A, seed=0)
        for blk in res.blocks:
            units = blk.units
            n_i = blk.n
            for mu in range(n_i):
                for nu in range(n_i):
                    for xi in range(n_i):
                        for eta in range(n_i):
                            got = A.mul_vec(units[mu][nu], units[xi][eta])
                            want = (
                                units[mu][eta]
                                if nu == xi
                                else np.zeros(A.dim, dtype=np.int64)
                            )
                            if got.tolist() != want.tolist():
                                ok = False
    report(5, ok, "all n_i^4 unit products satisfy the delta relations exactly")


def test_criterion_6_witness_suite(corpus):
    ok = True
    for label, A in corpus:
        res = full_isomorphism(A, seed=0)
        parts = [(k, mu, blk.units[mu, mu])
                 for k, blk in enumerate(res.blocks) for mu in range(blk.n)]
        for k, mu, e in parts:
            for l, nu, f in parts:
                # f*A*e is nonzero exactly within a block, and there the
                # units give the witness a = E[nu,mu], b = E[mu,nu]
                same = k == l
                if (hom_rows(A, f, e).shape[0] > 0) != same:
                    ok = False
                if same:
                    a, b = res.blocks[k].units[nu, mu], res.blocks[k].units[mu, nu]
                    if A.mul_vec(a, b).tolist() != f.tolist():
                        ok = False
                    if A.mul_vec(b, a).tolist() != e.tolist():
                        ok = False
    report(6, ok, "witness exists iff same block; ab=f and ba=e exact")


def test_criterion_7_determinism():
    base = build_planted([(2, 1), (1, 2)], 7).algebra
    A, _ = scramble(base, seed=4)

    def doc_bytes(seed):
        res = full_isomorphism(A, seed=seed)
        doc = result_to_doc(res, verify_isomorphism(A, res))
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    ok = doc_bytes(0) == doc_bytes(0)
    multisets = set()
    for seed in (0, 1, 2, 3):
        res = full_isomorphism(A, seed=seed)
        multisets.add(tuple(shape_multiset(res)))
    ok = ok and len(multisets) == 1
    report(7, ok, "same seed byte-identical, different seeds same multiset")


def test_criterion_8_performance_envelope():
    budget = 5.0
    ok = True
    timings = []
    for label, spec in [("M_4(F_97)", [(4, 1)]),
                        ("dim-64 sum", [(4, 1), (4, 1), (4, 2)])]:
        A, _ = scramble(build_planted(spec, 97).algebra, seed=11)
        t0 = time.perf_counter()
        res = full_isomorphism(A, seed=0)
        passed = verify_isomorphism(A, res).passed
        dt = time.perf_counter() - t0
        timings.append(f"{label} {dt:.2f}s")
        if not passed or dt >= budget:
            ok = False
    report(8, ok, "decompose + full verify under 5s each: " + ", ".join(timings))
