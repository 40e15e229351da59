"""Primes and prime-ideal powers by direct enumeration, used as an
independent reference.

The primes come from trial division by the primes found so far. A field's
prime-ideal powers come from the splitting of each prime: a prime ideal of
residue degree f above p gives the powers of norm p^(f m) <= x, each with
the weight f log p. Nothing here reads the field's NormIndexes or the code
that builds them, which it checks.

For a quadratic x^2 + b x + c and a prime p whose square does not divide
its discriminant b^2 - 4c, p does not divide the index, so the splitting
of p follows the roots of f modulo p (Dedekind-Kummer): two roots split
p, a double root ramifies it, none leaves it inert. The roots are counted
by Euler's criterion on b^2 - 4c for odd p and by trying 0 and 1 for
p = 2; the library reads the same splitting from the field discriminant
D instead, by Euler's criterion on D for odd p and D mod 8 for p = 2.
Every other prime, and every prime of a field of higher degree, takes its
shape from NumberField.split_prime.
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


def quadratic_root_shape(coeffs, p: int) -> list:
    """Splitting type of p from the roots of x^2 + b x + c modulo p; valid
    where p does not divide the index."""
    c, b, _ = coeffs
    if p == 2:
        roots = sum((r * r + b * r + c) % 2 == 0 for r in (0, 1))
    else:
        delta = (b * b - 4 * c) % p
        roots = 1 if delta == 0 else 2 if pow(delta, (p - 1) // 2, p) == 1 else 0
    return {0: [(1, 2)], 1: [(2, 1)], 2: [(1, 1), (1, 1)]}[roots]


def shape(field, p: int) -> list:
    """Splitting type of p in the field, by the route the module docstring gives."""
    if field.degree == 2 and field.disc_defining % (p * p):
        return quadratic_root_shape(field.coeffs, p)
    return field.split_prime(p)


def ideal_powers(field, x: float) -> list:
    """(norm, p, f, m, weight) for every prime-ideal power of norm <= x,
    sorted by (norm, p, f, m)."""
    out = []
    for p in primes_up_to(math.floor(x)):
        for _, f in shape(field, p):
            m = 1
            while p ** (f * m) <= x:
                out.append((p ** (f * m), p, f, m, f * math.log(p)))
                m += 1
    return sorted(out)
