"""Modulus validation against brute-force oracles."""

import time

import pytest

from wedderburn.errors import NotPrime, UnsupportedCharacteristic
from wedderburn.field import MAX_MODULUS, check_modulus, is_prime


def oracle_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def test_is_prime_matches_oracle_up_to_500():
    for n in range(500):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_matches_oracle_on_pseudoprimes_and_near_the_cap():
    # strong pseudoprimes to bases 2 / 2,3 / 2,3,5 and 3215031751, the
    # first composite passing bases 2, 3, 5 and 7; Carmichael numbers;
    # and every n in a window just below 2^31
    tricky = [2047, 3277, 4033, 4681, 8321, 1373653, 1530787, 1987021,
              25326001, 161304001, 960946321, 1157839381, 3215031751,
              561, 1105, 1729, 2465, 2821, 6601, 8911, 2**31 - 1, 2**31 + 11,
              2**30 + 3, 65537]
    for n in tricky + list(range(2**31 - 1001, 2**31 + 1)):
        assert is_prime(n) == trial_division(n), n


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_repeated_check_modulus_hits_the_cache():
    is_prime.cache_clear()
    for _ in range(3):
        assert check_modulus(2**31 - 1) == 2**31 - 1
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_check_modulus_accepts_odd_primes():
    for p in (3, 5, 7, 97, 101):
        assert check_modulus(p) == p


def test_check_modulus_rejects_composites_and_nonintegers():
    for bad in (1, 4, 6, 9, 91, 0, -5):
        with pytest.raises(NotPrime):
            check_modulus(bad)
    with pytest.raises(NotPrime):
        check_modulus(5.0)


def test_check_modulus_rejects_two_and_oversized():
    with pytest.raises(UnsupportedCharacteristic):
        check_modulus(2)
    # smallest prime above the modulus cap
    with pytest.raises(UnsupportedCharacteristic):
        check_modulus(2**31 + 11)
    assert MAX_MODULUS == 2**31 - 1



def test_huge_modulus_is_refused_before_any_primality_test():
    # trial division of these would run for hours; the range test answers
    is_prime.cache_clear()
    for p in (2**61 - 1, (2**61 - 1) * (2**31 - 1)):  # a prime, an odd composite
        start = time.perf_counter()
        with pytest.raises(UnsupportedCharacteristic):
            check_modulus(p)
        assert time.perf_counter() - start < 0.5
    assert is_prime.cache_info().misses == 0


def test_is_prime_is_exact_and_prompt_past_32_bits():
    # 3825123056546413051 is a strong pseudoprime to every prime base up to
    # 23; 2^64 - 59 is the largest prime below 2^64
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**64 - 59) and not is_prime(2**64 + 1)
    assert not is_prime((2**31 - 1) ** 2)
    assert time.perf_counter() - start < 0.5
    # the least composite the twelve bases pass is refused, not misjudged
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)
