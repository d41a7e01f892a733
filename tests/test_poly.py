"""Polynomial arithmetic and factorization over F_p, oracle-checked.

Coefficient arrays are lowest-degree-first throughout.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import poly
from wedderburn.errors import InternalInvariantViolation


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
    got = poly.factor(np.array(f), p, random.Random(0))
    return sorted((tuple(int(c) for c in g), m) for g, m in got)


# -- arithmetic ------------------------------------------------------------


def test_divmod_example():
    q, r = poly.divmod_poly(np.array([1, 0, 0, 1]), np.array([1, 1]), 5)
    # T^3 + 1 = (T + 1)(T^2 - T + 1)
    assert q.tolist() == [1, 4, 1] and poly.is_zero(r)


def test_gcd_and_bezout():
    f = poly.mul(np.array([1, 1]), np.array([2, 1]), 7)  # (T+1)(T+2)
    g = poly.mul(np.array([1, 1]), np.array([3, 1]), 7)  # (T+1)(T+3)
    d = poly._gcd(f.tolist(), g.tolist(), 7)
    assert d == [1, 1]
    d2, u, v = poly.bezout(f, g, 7)
    assert d2.tolist() == [1, 1]
    lhs = poly._add(poly.mul(u, f, 7).tolist(), poly.mul(v, g, 7).tolist(), 7)
    assert lhs == [1, 1]


def test_derivative():
    f = [1, 2, 3]  # 1 + 2T + 3T^2
    assert poly._derivative(f, 5) == [2, 6 % 5]


def test_pth_root():
    # (T + 2)^5 = T^5 + 2^5 = T^5 + 2 over F_5
    f = [2, 0, 0, 0, 0, 1]
    assert poly._pth_root(f, 5) == [2, 1]


def test_broken_preconditions_raise_a_typed_error():
    # checks, not asserts: they must hold under python -O as well
    with pytest.raises(InternalInvariantViolation, match="non-divisor"):
        poly.exact_div(np.array([1, 1]), np.array([0, 1]), 5)
    with pytest.raises(InternalInvariantViolation, match="not in T"):
        poly._pth_root([1, 1], 5)


def test_pow_mod():
    # T^4 mod (T^2 - 2) = 4 over F_5
    got = poly.pow_mod(np.array([0, 1]), 4, np.array([3, 0, 1]), 5)
    assert got.tolist() == [4]


def contract(c):
    """c as the public functions promise it: a C-contiguous int64 array,
    lowest degree first, with no trailing zero (zero is [0])."""
    assert isinstance(c, np.ndarray) and c.dtype == np.int64 and c.ndim == 1
    assert c.flags.c_contiguous and len(c) >= 1
    assert c[-1] != 0 or c.tolist() == [0]
    return c


@given(st.sampled_from([3, 5, 7, 65537, 2**31 - 1]),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_divmod_round_trip(p, rng):
    f = np.array([rng.randrange(p) for _ in range(rng.randrange(1, 7))])
    g = contract(poly.normalize(
        np.array([rng.randrange(p) for _ in range(rng.randrange(1, 4))]), p
    ))
    if poly.is_zero(g):
        g = np.array([1])
    q, r = map(contract, poly.divmod_poly(f, g, p))
    back = poly._add(contract(poly.mul(q, g, p)).tolist(), r.tolist(), p)
    assert back == poly.normalize(f, p).tolist()
    assert poly.degree(r) < poly.degree(g) or poly.is_zero(r)
    # s*f + t*g = d, the monic gcd
    d, s, t = map(contract, poly.bezout(f, g, p))
    assert d.tolist() == poly._gcd(poly._ints(f, p), poly._ints(g, p), p)
    assert d.tolist() == [0] or d[-1] == 1
    lhs = poly._add(poly.mul(s, f, p).tolist(), poly.mul(t, g, p).tolist(), p)
    assert lhs == d.tolist()
    assert poly._sub(lhs, d.tolist(), p) == [0]
    # f^e mod g against e rounds of multiply-and-reduce
    e = rng.randrange(6)
    want = poly.divmod_poly([1], g, p)[1]
    for _ in range(e):
        want = poly.divmod_poly(poly.mul(want, f, p), g, p)[1]
    assert contract(poly.pow_mod(f, e, g, p)).tolist() == want.tolist()


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
    # p = 101 splits by the quadratic-residue probe, like every odd p
    f = poly.mul(np.array([7, 1]), np.array([90, 1]), 101)
    assert berlekamp_multiset(f.tolist(), 101) == [((7, 1), 1), ((90, 1), 1)]


def count_pow_mod_exponents(monkeypatch):
    """Record the exponent of every poly._pow_mod call from here on."""
    exponents = []
    real_pow_mod = poly._pow_mod

    def counting_pow_mod(base, e, modulus, q):
        exponents.append(e)
        return real_pow_mod(base, e, modulus, q)

    monkeypatch.setattr(poly, "_pow_mod", counting_pow_mod)
    return exponents


def test_factor_at_a_large_prime_runs_the_probe(monkeypatch):
    p = 65537
    # (T + 3)(T + 10)^2 (T^2 - 3): 3 generates F_65537^*, so it is a
    # non-residue and T^2 - 3 is irreducible
    f = np.array([1])
    for g in ([3, 1], [10, 1], [10, 1], [p - 3, 0, 1]):
        f = poly.mul(f, np.array(g), p)
    exponents = count_pow_mod_exponents(monkeypatch)
    assert berlekamp_multiset(f.tolist(), p) == [
        ((3, 1), 1), ((10, 1), 2), ((p - 3, 0, 1), 1)
    ]
    # the quadratic-residue probe raises to (p - 1) / 2
    assert exponents.count((p - 1) // 2) >= 1


@pytest.mark.parametrize("p, factors", [
    # T (T + 1)(T + 2)(T^2 + 1): -1 is a non-residue mod 3
    (3, [[0, 1], [1, 1], [2, 1], [1, 0, 1]]),
    # T (T + 1)(T + 3)^2 (T^2 + 2): -2 is a non-residue mod 5
    (5, [[0, 1], [1, 1], [3, 1], [3, 1], [2, 0, 1]]),
])
def test_factor_at_small_primes_runs_the_probe(monkeypatch, p, factors):
    # at p = 3 the probe's exponent (p - 1) / 2 is 1: the shifted fixed
    # vector itself is compared with 1, the only nonzero square
    f = np.array([1])
    for g in factors:
        f = poly.mul(f, np.array(g), p)
    exponents = count_pow_mod_exponents(monkeypatch)
    assert berlekamp_multiset(f.tolist(), p) == oracle_factor(f.tolist(), p)
    # the fixed-space and irreducibility checks raise to p, not (p - 1) / 2
    assert exponents.count((p - 1) // 2) >= 1


def test_mul_is_exact_at_the_largest_modulus():
    p = 2**31 - 1
    rng = random.Random(31)
    for la, lb in [(1, 1), (2, 3), (6, 6), (9, 4), (40, 17)]:
        a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
        want = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = (want[i + j] + x * y) % p
        got = poly.mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == want, (la, lb)
    # all-maximal coefficients: every convolution sum is as large as it gets
    top = np.full(8, p - 1, dtype=np.int64)
    want = [((k + 1 if k < 8 else 15 - k) * (p - 1) ** 2) % p for k in range(15)]
    assert poly.mul(top, top, p).tolist() == want


def test_squarefree_decomposition_reassembles():
    rng = random.Random(33)
    for p in (3, 5):
        for _ in range(10):
            deg = rng.randrange(1, 6)
            f = np.array([rng.randrange(p) for _ in range(deg)] + [1])
            parts = poly.factor(f, p, random.Random(0))
            acc = np.array([1])
            for g, m in parts:
                assert poly.is_irreducible(g, p)
                for _ in range(m):
                    acc = poly.mul(acc, g, p)
            assert acc.tolist() == f.tolist()


@given(st.sampled_from([3, 5, 97, 2**31 - 1]), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_factor_is_sorted_and_independent_of_the_draws(p, rng):
    # the shifts come from the caller's generator; they may change the order
    # in which the probe finds the factors, never the sorted result
    f = np.array([1])
    for _ in range(rng.randrange(1, 4)):
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
        for _ in range(rng.randrange(1, 3)):
            f = poly.mul(f, np.array(g), p)
    got = [(g.tolist(), m) for g, m in poly.factor(f, p, random.Random(1))]
    assert got == sorted(got, key=lambda gm: (len(gm[0]), gm[0]))
    for seed in (2, 3):
        again = poly.factor(f, p, random.Random(seed))
        assert [(g.tolist(), m) for g, m in again] == got
    with pytest.raises(ValueError):
        poly.factor(np.array([0]), p, random.Random(0))


def test_find_irreducible_is_deterministic_and_irreducible():
    for p, d in [(5, 2), (5, 3), (7, 2), (97, 2)]:
        f = poly.find_irreducible(d, p)
        assert poly.degree(f) == d and f[-1] == 1
        assert poly.is_irreducible(f, p)
        assert f.tolist() == poly.find_irreducible(d, p).tolist()
    # the lex scan tries T^2, T^2 + 1 (roots 2, 3) and lands on T^2 + 2
    assert poly.find_irreducible(2, 5).tolist() == [2, 0, 1]


@pytest.mark.parametrize("d, p, want", [
    (2, 3, [1, 0, 1]),
    (2, 5, [2, 0, 1]),
    (2, 97, [5, 0, 1]),
    (3, 97, [2, 0, 0, 1]),
    (4, 97, [5, 0, 0, 0, 1]),
    # no binomial is irreducible: 3 does not divide p - 1, or 4 | d and
    # p = 3 mod 4, so the scan starts where it would arrive, at T^d + T
    (3, 5, [1, 1, 0, 1]),
    (4, 7, [1, 1, 0, 0, 1]),
])
def test_find_irreducible_pins_the_lex_first(d, p, want):
    assert poly.find_irreducible(d, p).tolist() == want


def lex_first_irreducible(d, p):
    """The first monic irreducible of degree d, by testing every candidate."""
    for low in itertools.product(range(p), repeat=d):
        f = list(reversed(low)) + [1]
        if poly.is_irreducible(np.array(f), p):
            return f
    return None


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_find_irreducible_is_the_lex_first(d, p):
    assert poly.find_irreducible(d, p).tolist() == lex_first_irreducible(d, p)


@pytest.mark.parametrize("d, p", [
    (3, 2147483579), (6, 2147483579), (9, 2147483579),  # p = 2 mod 3
    (4, 2**31 - 1), (8, 2**31 - 1), (12, 2**31 - 1),  # p = 3 mod 4
])
def test_find_irreducible_without_a_binomial_returns_promptly(monkeypatch, d, p):
    # the scan once tried all p binomials T^d + c first; each candidate is
    # counted, and a scan that runs on past a few hundred is stopped
    tested = []
    real = poly._is_irreducible

    def counted(f, q):
        tested.append(1)
        if len(tested) > 500:
            raise RuntimeError("the scan did not stop")
        return real(f, q)

    monkeypatch.setattr(poly, "_is_irreducible", counted)
    f = poly.find_irreducible(d, p)
    assert f[1] == 1 and not f[2:d].any() and f[-1] == 1
    assert real(f.tolist(), p)


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
