"""Small exact integer helpers: primality, factoring, Kronecker symbol."""

from __future__ import annotations

import math

__all__ = ["is_probable_prime", "factorize", "kronecker"]

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
    """Trial division up to _TRIAL_LIMIT, then primality/square tests on the rest.

    Returns (exponents, cofactor); cofactor is 1 unless an unfactored
    composite remains.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT + 1):
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


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully general."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # quadratic reciprocity loop on odd n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0
