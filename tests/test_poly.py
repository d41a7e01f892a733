"""Polynomial arithmetic and factorization over F_p, oracle-checked.

Coefficient arrays are lowest-degree-first throughout.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import poly


def oracle_factor(f, p):
    """Factor a monic polynomial by scanning all smaller monic divisors.

    Exponential in the degree; fine for the tiny inputs used here.  Returns
    the sorted multiset of (coeff tuple, multiplicity) irreducible factors.
    """
    f = [c % p for c in f]
    assert f[-1] == 1

    def monics(d):
        if d == 0:
            yield (1,)
            return
        for tail in range(p**d):
            coeffs = []
            t = tail
            for _ in range(d):
                coeffs.append(t % p)
                t //= p
            yield tuple(coeffs) + (1,)

    def divides(g, h):
        # does g divide h exactly?
        h = list(h)
        while len(h) >= len(g) and any(h):
            if h[-1] == 0:
                h.pop()
                continue
            shift = len(h) - len(g)
            c = h[-1]
            for i, gc in enumerate(g):
                h[shift + i] = (h[shift + i] - c * gc) % p
            while h and h[-1] == 0:
                h.pop()
        return not any(h)

    def exact_div(g, h):
        q, r = poly.divmod_poly(np.array(h), np.array(g), p)
        assert poly.is_zero(r)
        return [int(c) for c in q]

    factors = {}
    rest = f
    d = 1
    while len(rest) > 1:
        hit = None
        for g in monics(d):
            if len(g) > len(rest):
                break
            if len(g) < len(rest) and not divides(g, rest):
                continue
            hit = g if len(g) < len(rest) else tuple(rest)
            break
        if hit is None:
            d += 1
            continue
        factors[hit] = factors.get(hit, 0) + 1
        rest = exact_div(list(hit), rest)
        d = 1
    return sorted(factors.items())


def berlekamp_multiset(f, p):
    got = poly.berlekamp_factor(np.array(f), p)
    return sorted((tuple(int(c) for c in g), m) for g, m in got)


# -- arithmetic ------------------------------------------------------------


def test_divmod_example():
    q, r = poly.divmod_poly(np.array([1, 0, 0, 1]), np.array([1, 1]), 5)
    # T^3 + 1 = (T + 1)(T^2 - T + 1)
    assert q.tolist() == [1, 4, 1] and poly.is_zero(r)


def test_gcd_and_bezout():
    f = poly.mul(np.array([1, 1]), np.array([2, 1]), 7)  # (T+1)(T+2)
    g = poly.mul(np.array([1, 1]), np.array([3, 1]), 7)  # (T+1)(T+3)
    d = poly.gcd(f, g, 7)
    assert d.tolist() == [1, 1]
    d2, u, v = poly.bezout(f, g, 7)
    assert d2.tolist() == [1, 1]
    lhs = poly.add(poly.mul(u, f, 7), poly.mul(v, g, 7), 7)
    assert lhs.tolist() == [1, 1]


def test_eval_and_derivative():
    f = np.array([1, 2, 3])  # 1 + 2T + 3T^2
    assert poly.eval_poly(f, 2, 5) == (1 + 4 + 12) % 5
    assert poly.derivative(f, 5).tolist() == [2, 6 % 5]


def test_pth_root():
    # (T + 2)^5 = T^5 + 2^5 = T^5 + 2 over F_5
    f = np.zeros(6, dtype=np.int64)
    f[0], f[5] = 2, 1
    assert poly.pth_root(f, 5).tolist() == [2, 1]


def test_pow_mod():
    # T^4 mod (T^2 - 2) = 4 over F_5
    got = poly.pow_mod(np.array([0, 1]), 4, np.array([3, 0, 1]), 5)
    assert got.tolist() == [4]


@given(st.sampled_from([3, 5, 7]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_divmod_round_trip(p, rng):
    f = np.array([rng.randrange(p) for _ in range(rng.randrange(1, 7))])
    g = poly.normalize(
        np.array([rng.randrange(p) for _ in range(rng.randrange(1, 4))]), p
    )
    if poly.is_zero(g):
        g = np.array([1])
    q, r = poly.divmod_poly(f, g, p)
    back = poly.add(poly.mul(q, g, p), r, p)
    assert back.tolist() == poly.normalize(f, p).tolist()
    assert poly.degree(r) < poly.degree(g) or poly.is_zero(r)


def test_divmod_rejects_zero_divisor_even_unnormalized():
    from wedderburn.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        poly.divmod_poly(np.array([1, 2]), np.array([0]), 5)
    # trailing-zero disguise of the zero polynomial is caught too
    with pytest.raises(DivisionByZero):
        poly.divmod_poly(np.array([1, 2]), np.array([0, 0]), 5)
    # the error doubles as the stdlib kind so generic handlers still work
    with pytest.raises(ZeroDivisionError):
        poly.divmod_poly(np.array([1, 2]), np.array([0]), 5)


# -- factorization ---------------------------------------------------------


def test_t4_minus_1_over_f5_splits_completely():
    # T^4 - 1 has all of F_5^* as roots: four distinct linear factors
    f = np.array([-1, 0, 0, 0, 1]) % 5
    want = oracle_factor([4, 0, 0, 0, 1], 5)
    assert want == [((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((4, 1), 1)]
    assert berlekamp_multiset(f.tolist(), 5) == want


def test_t2_plus_1_over_f5():
    want = [((2, 1), 1), ((3, 1), 1)]  # (T - 3)(T - 2)
    assert oracle_factor([1, 0, 1], 5) == want
    assert berlekamp_multiset([1, 0, 1], 5) == want


def test_t2_plus_t_plus_1_irreducible_over_f5():
    assert poly.is_irreducible(np.array([1, 1, 1]), 5)
    assert berlekamp_multiset([1, 1, 1], 5) == [((1, 1, 1), 1)]


def test_cyclotomic_t3_minus_1():
    # over F_5: (T - 1)(T^2 + T + 1); over F_7: three linear factors
    assert berlekamp_multiset([4, 0, 0, 1], 5) == [((1, 1, 1), 1), ((4, 1), 1)]
    assert berlekamp_multiset([6, 0, 0, 1], 7) == [
        ((3, 1), 1),
        ((5, 1), 1),
        ((6, 1), 1),
    ]


def test_repeated_factors():
    # (T + 1)^2 (T^2 + 1) over F_3, where T^2 + 1 is irreducible
    f = poly.mul(poly.mul(np.array([1, 1]), np.array([1, 1]), 3),
                 np.array([1, 0, 1]), 3)
    assert berlekamp_multiset(f.tolist(), 3) == [((1, 0, 1), 1), ((1, 1), 2)]


def test_frobenius_power_multiplicity():
    # (T + 2)^5 over F_5 exercises the p-th-root branch of squarefree split
    f = np.zeros(6, dtype=np.int64)
    f[0], f[5] = 2, 1
    assert berlekamp_multiset(f.tolist(), 5) == [((2, 1), 5)]


def test_factor_matches_oracle_randomly():
    rng = random.Random(21)
    for p in (3, 5, 7):
        for _ in range(8):
            deg = rng.randrange(2, 5)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            assert berlekamp_multiset(coeffs, p) == oracle_factor(coeffs, p), (
                p,
                coeffs,
            )


def test_factor_large_prime_uses_probe_path():
    # p = 101 exceeds the deterministic scan bound, exercising the
    # randomized fixed-vector probe; result still exact and canonical
    f = poly.mul(np.array([7, 1]), np.array([90, 1]), 101)
    assert berlekamp_multiset(f.tolist(), 101) == [((7, 1), 1), ((90, 1), 1)]


def test_squarefree_decomposition_reassembles():
    rng = random.Random(33)
    for p in (3, 5):
        for _ in range(10):
            deg = rng.randrange(1, 6)
            f = np.array([rng.randrange(p) for _ in range(deg)] + [1])
            parts = poly.squarefree_decomposition(f, p)
            acc = np.array([1])
            for g, m in parts:
                for _ in range(m):
                    acc = poly.mul(acc, g, p)
            assert acc.tolist() == f.tolist()


def test_find_irreducible_is_deterministic_and_irreducible():
    for p, d in [(5, 2), (5, 3), (7, 2), (97, 2)]:
        f = poly.find_irreducible(d, p)
        assert poly.degree(f) == d and f[-1] == 1
        assert poly.is_irreducible(f, p)
        assert f.tolist() == poly.find_irreducible(d, p).tolist()
    # the lex scan tries T^2, T^2 + 1 (roots 2, 3) and lands on T^2 + 2
    assert poly.find_irreducible(2, 5).tolist() == [2, 0, 1]


@given(st.sampled_from([3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_factor_product_round_trip(p, rng):
    # multiply a random multiset of known irreducibles, refactor, compare
    pool = {
        3: [[1, 1], [2, 1], [1, 0, 1], [2, 2, 1]],
        5: [[1, 1], [3, 1], [1, 1, 1], [2, 0, 1]],
    }[p]
    picks = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
    f = np.array([1])
    want = {}
    for g in picks:
        f = poly.mul(f, np.array(g), p)
        want[tuple(g)] = want.get(tuple(g), 0) + 1
    assert berlekamp_multiset(f.tolist(), p) == sorted(want.items())
