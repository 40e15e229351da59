"""Integer helpers against trial division."""

import math

import pytest

from genbound.arith import factorize, is_probable_prime


def trial_division_prime(n):
    return n >= 2 and all(n % p for p in range(2, n) if p * p <= n)


def test_is_probable_prime_small_range():
    # below 41^2 every composite has a prime factor <= 37, the smallest bases
    for n in range(-3, 41 * 41):
        assert is_probable_prime(n) == trial_division_prime(n), n
    assert not is_probable_prime(41 * 41)
    assert not is_probable_prime(41 * 43)
    assert is_probable_prime(1693) and is_probable_prime(1697)


def trial_division_factorize(n, limit=1_000_000):
    """factorize by trial division by every integer up to limit, then the
    same primality and square tests on what is left."""
    n = abs(n)
    out = {}
    for p in range(2, limit + 1):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out, 1
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return out, 1
    r = math.isqrt(n)
    if r * r == n and is_probable_prime(r):
        out[r] = out.get(r, 0) + 2
        return out, 1
    return out, n


def test_factorize_matches_trial_division():
    for n in range(1, 200_001):
        assert factorize(n) == trial_division_factorize(n), n
    assert factorize(-100_003) == ({100_003: 1}, 1)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_the_trial_limit():
    # p q with both primes above 10^6 stays an unfactored cofactor; p^2 is
    # found by the square test, also after a small factor
    p, q = 1_000_003, 1_000_033
    assert is_probable_prime(p) and is_probable_prime(q)
    for n, want in ((p * q, ({}, p * q)), (p * p, ({p: 2}, 1)), (12 * p * p, ({2: 2, 3: 1, p: 2}, 1)),
                    (6 * p * q, ({2: 1, 3: 1}, p * q)), (2 * p, ({2: 1, p: 1}, 1))):
        assert factorize(n) == trial_division_factorize(n) == want, n
