"""Modulus validation against brute-force oracles."""

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

