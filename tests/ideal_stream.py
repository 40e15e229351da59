"""Primes and prime-ideal powers by direct enumeration, used as an
independent reference.

The primes come from trial division by the primes found so far. A field's
prime-ideal powers come from NumberField.split_prime, prime by prime: a
prime ideal of residue degree f above p gives the powers of norm
p^(f m) <= x, each with the weight f log p. Nothing here reads the
field's NormIndexes or the code that builds them, which it checks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


@lru_cache(maxsize=None)
def primes_up_to(n: int) -> tuple:
    """Every prime p <= n, ascending."""
    primes = []
    for k in range(2, n + 1):
        if all(k % p for p in itertools.takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
    return tuple(primes)


def rational_prime_powers(x: float) -> list:
    """(q, log p) for every prime power q = p^k <= x, sorted by q."""
    out = []
    for p in primes_up_to(math.floor(x)):
        q = p
        while q <= x:
            out.append((q, math.log(p)))
            q *= p
    return sorted(out)


def ideal_powers(field, x: float) -> list:
    """(norm, p, f, m, weight) for every prime-ideal power of norm <= x,
    sorted by (norm, p, f, m)."""
    out = []
    for p in primes_up_to(math.floor(x)):
        for _, f in field.split_prime(p):
            m = 1
            while p ** (f * m) <= x:
                out.append((p ** (f * m), p, f, m, f * math.log(p)))
                m += 1
    return sorted(out)
