"""Polynomial arithmetic and factorization over F_p, oracle-checked.

A polynomial is a list of Python ints in [0, p), lowest degree first.
"""

import inspect
import itertools
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import (
    build_planted,
    full_isomorphism,
    poly,
    scramble,
    verify_isomorphism,
)
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
        q, r = poly.divmod_poly(list(h), list(g), p)
        assert poly.is_zero(r)
        return q

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
    got = poly.factor(poly.normalize(f, p), p, random.Random(0))
    return sorted((tuple(g), m) for g, m in got)


# -- arithmetic ------------------------------------------------------------


def test_divmod_example():
    q, r = poly.divmod_poly([1, 0, 0, 1], [1, 1], 5)
    # T^3 + 1 = (T + 1)(T^2 - T + 1)
    assert q == [1, 4, 1] and poly.is_zero(r)


def test_gcd_and_bezout():
    f = poly.mul([1, 1], [2, 1], 7)  # (T+1)(T+2)
    g = poly.mul([1, 1], [3, 1], 7)  # (T+1)(T+3)
    d = poly._gcd(f, g, 7)
    assert d == [1, 1]
    d2, u, v = poly.bezout(f, g, 7)
    assert d2 == [1, 1]
    lhs = poly._add(poly.mul(u, f, 7), poly.mul(v, g, 7), 7)
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
        poly.exact_div([1, 1], [0, 1], 5)
    with pytest.raises(InternalInvariantViolation, match="not in T"):
        poly._pth_root([1, 1], 5)


def test_pow_mod():
    # T^4 mod (T^2 - 2) = 4 over F_5
    assert poly._pow_mod([0, 1], 4, [3, 0, 1], 5) == [4]


def contract(c, p):
    """c as every poly function promises it: a list of Python ints in
    [0, p), lowest degree first, with no trailing zero (zero is [0])."""
    assert type(c) is list and len(c) >= 1
    assert all(type(x) is int and 0 <= x < p for x in c)
    assert c[-1] != 0 or c == [0]
    return c


def test_normalize_takes_any_integers_to_the_contract():
    p = 2**31 - 1
    row = np.array([p + 3, -1, 0, 2 * p, 0], dtype=np.int64)
    assert contract(poly.normalize(row, p), p) == [3, p - 1]
    assert contract(poly.normalize([0, 0, 0], p), p) == [0]
    assert contract(poly.normalize([], p), p) == [0]
    assert contract(poly.normalize([p**3 + 5], p), p) == [5]


@given(st.sampled_from([3, 5, 7, 65537, 2**31 - 1]),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_divmod_round_trip(p, rng):
    # the coefficients arrive as an int64 row, as a kernel row would
    f = contract(poly.normalize(np.array(
        [rng.randrange(p) for _ in range(rng.randrange(1, 7))]), p), p)
    g = contract(poly.normalize(
        np.array([rng.randrange(p) for _ in range(rng.randrange(1, 4))]), p
    ), p)
    if poly.is_zero(g):
        g = [1]
    q, r = (contract(c, p) for c in poly.divmod_poly(f, g, p))
    back = poly._add(contract(poly.mul(q, g, p), p), r, p)
    assert back == f
    assert poly.degree(r) < poly.degree(g) or poly.is_zero(r)
    # s*f + t*g = d, the monic gcd
    d, s, t = (contract(c, p) for c in poly.bezout(f, g, p))
    assert d == poly._gcd(f, g, p)
    assert d == [0] or d[-1] == 1
    lhs = poly._add(poly.mul(s, f, p), poly.mul(t, g, p), p)
    assert lhs == d
    assert poly._sub(lhs, d, p) == [0]
    # f^e mod g against e rounds of multiply-and-reduce
    e = rng.randrange(6)
    want = poly.divmod_poly([1], g, p)[1]
    for _ in range(e):
        want = poly.divmod_poly(poly.mul(want, f, p), g, p)[1]
    assert contract(poly._pow_mod(f, e, g, p), p) == want


def test_divmod_rejects_zero_divisor_even_unnormalized():
    from wedderburn.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        poly.divmod_poly([1, 2], [0], 5)
    with pytest.raises(DivisionByZero):
        poly.exact_div([1, 2], [0], 5)
    # a trailing-zero disguise of the zero polynomial is [0] once normalized
    with pytest.raises(DivisionByZero):
        poly.divmod_poly([1, 2], poly.normalize(np.array([0, 0]), 5), 5)
    # the error doubles as the stdlib kind so generic handlers still work
    with pytest.raises(ZeroDivisionError):
        poly.divmod_poly([1, 2], [0], 5)


# -- factorization ---------------------------------------------------------


def test_t4_minus_1_over_f5_splits_completely():
    # T^4 - 1 has all of F_5^* as roots: four distinct linear factors
    want = oracle_factor([4, 0, 0, 0, 1], 5)
    assert want == [((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((4, 1), 1)]
    assert berlekamp_multiset([-1, 0, 0, 0, 1], 5) == want


def test_t2_plus_1_over_f5():
    want = [((2, 1), 1), ((3, 1), 1)]  # (T - 3)(T - 2)
    assert oracle_factor([1, 0, 1], 5) == want
    assert berlekamp_multiset([1, 0, 1], 5) == want


def test_t2_plus_t_plus_1_irreducible_over_f5():
    assert poly.is_irreducible([1, 1, 1], 5)
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
    f = poly.mul(poly.mul([1, 1], [1, 1], 3), [1, 0, 1], 3)
    assert berlekamp_multiset(f, 3) == [((1, 0, 1), 1), ((1, 1), 2)]


def test_frobenius_power_multiplicity():
    # (T + 2)^5 over F_5 exercises the p-th-root branch of squarefree split
    assert berlekamp_multiset([2, 0, 0, 0, 0, 1], 5) == [((2, 1), 5)]


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
    f = poly.mul([7, 1], [90, 1], 101)
    assert berlekamp_multiset(f, 101) == [((7, 1), 1), ((90, 1), 1)]


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
    f = [1]
    for g in ([3, 1], [10, 1], [10, 1], [p - 3, 0, 1]):
        f = poly.mul(f, g, p)
    exponents = count_pow_mod_exponents(monkeypatch)
    assert berlekamp_multiset(f, p) == [
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
    f = [1]
    for g in factors:
        f = poly.mul(f, g, p)
    exponents = count_pow_mod_exponents(monkeypatch)
    assert berlekamp_multiset(f, p) == oracle_factor(f, p)
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
        assert contract(poly.mul(a, b, p), p) == want, (la, lb)
    # all-maximal coefficients: every convolution sum is as large as it gets
    top = [p - 1] * 8
    want = [((k + 1 if k < 8 else 15 - k) * (p - 1) ** 2) % p for k in range(15)]
    assert poly.mul(top, top, p) == want


def test_squarefree_decomposition_reassembles():
    rng = random.Random(33)
    for p in (3, 5):
        for _ in range(10):
            deg = rng.randrange(1, 6)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            parts = poly.factor(f, p, random.Random(0))
            acc = [1]
            for g, m in parts:
                assert poly.is_irreducible(contract(g, p), p)
                for _ in range(m):
                    acc = poly.mul(acc, g, p)
            assert acc == f


@given(st.sampled_from([3, 5, 97, 2**31 - 1]), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_factor_is_sorted_and_independent_of_the_draws(p, rng):
    # the shifts come from the caller's generator; they may change the order
    # in which the probe finds the factors, never the sorted result
    f = [1]
    for _ in range(rng.randrange(1, 4)):
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
        for _ in range(rng.randrange(1, 3)):
            f = poly.mul(f, g, p)
    got = poly.factor(f, p, random.Random(1))
    assert got == sorted(got, key=lambda gm: (len(gm[0]), gm[0]))
    for seed in (2, 3):
        assert poly.factor(f, p, random.Random(seed)) == got
    with pytest.raises(ValueError):
        poly.factor([0], p, random.Random(0))


def test_find_irreducible_is_deterministic_and_irreducible():
    for p, d in [(5, 2), (5, 3), (7, 2), (97, 2)]:
        f = poly.find_irreducible(d, p)
        assert poly.degree(contract(f, p)) == d and f[-1] == 1
        assert poly.is_irreducible(f, p)
        assert f == poly.find_irreducible(d, p)
    # the lex scan tries T^2, T^2 + 1 (roots 2, 3) and lands on T^2 + 2
    assert poly.find_irreducible(2, 5) == [2, 0, 1]


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
    assert poly.find_irreducible(d, p) == want


def lex_first_irreducible(d, p):
    """The first monic irreducible of degree d, by testing every candidate."""
    for low in itertools.product(range(p), repeat=d):
        f = list(reversed(low)) + [1]
        if poly.is_irreducible(f, p):
            return f
    return None


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_find_irreducible_is_the_lex_first(d, p):
    assert poly.find_irreducible(d, p) == lex_first_irreducible(d, p)


@pytest.mark.parametrize("d, p", [
    (3, 2147483579), (6, 2147483579), (9, 2147483579),  # p = 2 mod 3
    (4, 2**31 - 1), (8, 2**31 - 1), (12, 2**31 - 1),  # p = 3 mod 4
])
def test_find_irreducible_without_a_binomial_returns_promptly(monkeypatch, d, p):
    # the scan once tried all p binomials T^d + c first; each candidate is
    # counted, and a scan that runs on past a few hundred is stopped
    tested = []
    real = poly.is_irreducible

    def counted(f, q):
        tested.append(1)
        if len(tested) > 500:
            raise RuntimeError("the scan did not stop")
        return real(f, q)

    monkeypatch.setattr(poly, "is_irreducible", counted)
    f = poly.find_irreducible(d, p)
    assert f[1] == 1 and not any(f[2:d]) and f[-1] == 1
    assert real(f, p)


@given(st.sampled_from([3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_factor_product_round_trip(p, rng):
    # multiply a random multiset of known irreducibles, refactor, compare
    pool = {
        3: [[1, 1], [2, 1], [1, 0, 1], [2, 2, 1]],
        5: [[1, 1], [3, 1], [1, 1, 1], [2, 0, 1]],
    }[p]
    picks = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
    f = [1]
    want = {}
    for g in picks:
        f = poly.mul(f, g, p)
        want[tuple(g)] = want.get(tuple(g), 0) + 1
    assert berlekamp_multiset(f, p) == sorted(want.items())


# -- the callers ------------------------------------------------------------

# the positional arguments of each poly function that are polynomials, and
# the polynomials among its result
_POLY_ARGS = {
    "normalize": 0, "find_irreducible": 0,  # outside coefficients, a degree
    "degree": 1, "is_zero": 1, "monic": 1, "is_irreducible": 1, "factor": 1,
    "mul": 2, "divmod_poly": 2, "exact_div": 2, "bezout": 2,
}
_POLY_RESULTS = {
    "degree": lambda out: [], "is_zero": lambda out: [],
    "is_irreducible": lambda out: [],
    "divmod_poly": list, "bezout": list,
    "factor": lambda out: [g for g, _ in out],
}


def spy_on_poly(monkeypatch, p):
    """Give algebra, generators and idempotents a poly whose every function
    checks its polynomial arguments and result against contract; returns
    the names called."""
    from wedderburn import algebra, generators, idempotents

    called = []

    def checked(name, fn):
        def spy(*args):
            called.append(name)
            for c in args[: _POLY_ARGS[name]]:
                contract(c, p)
            out = fn(*args)
            for c in _POLY_RESULTS.get(name, lambda out: [out])(out):
                contract(c, p)
            return out
        return spy

    public = {name: value for name, value in vars(poly).items()
              if not name.startswith("_")}
    proxy = types.SimpleNamespace(**{
        name: checked(name, value)
        if inspect.isfunction(value) and value.__module__ == poly.__name__
        else value
        for name, value in public.items()
    })
    for module in (algebra, generators, idempotents):
        monkeypatch.setattr(module, "poly", proxy)
    return called


@pytest.mark.parametrize("p", [97, 2**31 - 1])
def test_callers_hand_poly_lists_and_get_lists_back(monkeypatch, p):
    # an int64 coefficient near 2^31 would overflow the convolution's sums,
    # and nothing in poly converts its arguments: every caller must pass
    # lists of Python ints, as normalize makes them
    called = spy_on_poly(monkeypatch, p)
    A, _ = scramble(build_planted([(2, 1), (1, 2)], p).algebra, seed=5)
    res = full_isomorphism(A, seed=0)
    assert verify_isomorphism(A, res).passed
    assert sorted((b.n, b.D.degree) for b in res.blocks) == [(1, 2), (2, 1)]
    assert {"normalize", "find_irreducible", "monic", "is_irreducible",
            "divmod_poly", "factor", "bezout", "mul",
            "exact_div"} <= set(called)
