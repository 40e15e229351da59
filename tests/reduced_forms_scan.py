"""Reduced binary quadratic forms by direct scan, used as an independent oracle.

Every (a, b) pair is tried: for d < 0 the pairs with a <= sqrt(|d|/3) and
b in (-a, a]; for d > 0 every 0 < b < sqrt d and every divisor of
(d - b^2)/4 by trial division. That is O(|d|) work and shares no code path
with the modular-square-root enumeration in
:mod:`genbound.quadratic_classgroup`, which it checks.
"""

from __future__ import annotations

import math


def _is_reduced_indefinite(a, b, d):
    # |sqrt d - 2|a|| < b < sqrt d
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a) - b
    if t >= 0 and t * t >= d:
        return False
    s = 2 * abs(a) + b
    return s * s > d


def enumerate_reduced_by_scan(d):
    """Every reduced form (a, b, c) of discriminant d, in scan order."""
    if d < 0:
        out = []
        amax = math.isqrt(-d // 3)
        for a in range(1, amax + 1):
            for b in range(-a + 1, a + 1):
                if (b - d) % 2:
                    continue
                num = b * b - d
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if a == c and b < 0:
                    continue
                out.append((a, b, c))
        return out
    sq = math.isqrt(d)
    out = []
    for b in range(1, sq + 1):
        if (b - d) % 2:
            continue
        N = (d - b * b) // 4
        divs = set()
        t = 1
        while t * t <= N:
            if N % t == 0:
                divs.update({t, N // t})
            t += 1
        for ap in sorted(divs):
            for a in (ap, -ap):
                c = (b * b - d) // (4 * a)
                if _is_reduced_indefinite(a, b, d):
                    out.append((a, b, c))
    return out
