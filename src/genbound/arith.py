"""Small exact integer helpers: primality, factoring, fundamental discriminants."""

from __future__ import annotations

import math

from .rational_sieve import default_table

__all__ = ["is_probable_prime", "factorize", "is_fundamental_discriminant"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_LIMIT = 1_000_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # a composite this small has a prime factor <= 37, found above
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[dict[int, int], int]:
    """Trial division by the primes up to min(sqrt|n|, _TRIAL_LIMIT), taken
    from the shared sieve; what is left is then 1 or a prime, unless |n|
    exceeds _TRIAL_LIMIT^2, where primality and square tests decide it.

    Returns (exponents, cofactor): the prime factors found, in increasing
    order, with their exponents; cofactor is 1 unless an unfactored
    composite remains.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    bound = min(math.isqrt(n), _TRIAL_LIMIT)
    out: dict[int, int] = {}
    for p in default_table().primes_up_to(bound).tolist():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # no prime up to bound divides what is left, so below (bound + 1)^2 it
    # is 1 or a prime
    if n < (bound + 1) ** 2 or is_probable_prime(n):
        if n > 1:
            out[n] = 1
        return out, 1
    r = math.isqrt(n)
    if r * r == n and is_probable_prime(r):
        out[r] = 2
        return out, 1
    return out, n


def is_fundamental_discriminant(d: int) -> bool:
    """Whether d is the discriminant of a quadratic field: d = 1 (mod 4)
    squarefree, or d = 4m with m = 2, 3 (mod 4) squarefree."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        fac, cof = factorize(d)
        return cof == 1 and all(e == 1 for e in fac.values())
    if d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            return False
        fac, cof = factorize(m)
        return cof == 1 and all(e == 1 for e in fac.values())
    return False
