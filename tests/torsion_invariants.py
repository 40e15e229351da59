"""Invariant factors of a finite abelian group from p-torsion counts, used as
an independent oracle.

The group is given by its elements and composition. The map x -> x^p is
applied to every element, about h log2(p) compositions for each prime p
with p^2 | h, and the oracle shares no code path with the Smith normal form of the
prime-growth relations in :mod:`genbound.quadratic_classgroup`, which it
checks.
"""

from __future__ import annotations

import math

from genbound.arith import factorize
from genbound.errors import ArithmeticInvariantError


def abelian_invariants(elements, compose, identity):
    """Invariant factors (ascending, each dividing the next) of a finite
    abelian group given by its elements and composition.

    A prime p exactly dividing h gives one factor p. For p^e || h, e >= 2,
    the p-torsion counts |G[p^k]| = p^(s_k) are read off the map x -> x^p:
    s_k - s_(k-1) cyclic p-factors have order >= p^k (Cohen, GTM 138, §2.4).
    """

    def power(x, m):
        # left-to-right square-and-multiply, m >= 1
        y = x
        for bit in bin(m)[3:]:
            y = compose(y, y)
            if bit == "1":
                y = compose(y, x)
        return y

    ranks = {}  # p -> [number of cyclic p-factors of order >= p^k, k = 1, 2, ...]
    for p, e in factorize(len(elements))[0].items():
        if e == 1:
            ranks[p] = [1]
            continue
        pth = {x: power(x, p) for x in elements}
        xs, s, ranks[p] = list(elements), 0, []
        while s < e:
            if len(ranks[p]) == e:
                raise ArithmeticInvariantError(f"{p}-torsion stops at {p}^{s} < {p}^{e}")
            xs = [pth.get(x) for x in xs]
            n, t = xs.count(identity), s
            while p**t < n:
                t += 1
            if p**t != n or t > e:
                raise ArithmeticInvariantError(
                    f"{n} elements killed by {p}^{len(ranks[p]) + 1}: not a power of {p} <= {p}^{e}"
                )
            ranks[p].append(t - s)
            s = t
    width = max((r[0] for r in ranks.values()), default=0)
    return [
        math.prod(p ** sum(k >= j for k in r) for p, r in ranks.items())
        for j in range(width, 0, -1)
    ]
