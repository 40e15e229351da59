"""Class groups of quadratic fields via binary quadratic forms.

Forms are (a, b, c) triples of discriminant d = b^2 - 4ac, d a fundamental
discriminant. Negative discriminants use the classical reduced-form
normal form. Positive ones use reduction cycles: a rho-cycle is a narrow
class, and a wide class joins the cycles of (a, b, c) and (-a, b, -c),
which differ by the class of sqrt(d), of norm -d < 0 (Cohen, GTM 138,
§5.2). The reduced forms are enumerated in O(sqrt|d|) steps from modular
square roots: for each leading coefficient a (1 <= a <= sqrt(|d|/3) when
d < 0, 1 <= |a| <= sqrt(d) when d > 0) the classes b mod 2a with
b^2 = d (mod 4a) are the roots of d modulo each prime power dividing a,
joined by CRT; each class gives at most one reduced b, in (-a, a] for
d < 0 and in (|sqrt d - 2|a||, sqrt d) for d > 0. Composition is
Gauss-Dirichlet composition in the form of Cohen, GTM 138, Alg. 5.4.7:
two extended gcds and one step modulo a leading coefficient.

Each group is built once with one growth: the subgroup H generated by the
classes of the primes 2, 3, 5, ... (inert ones skipped) takes, for every
prime whose class g enlarges it, the powers of g up to the first g^k in H,
then the cosets H g^i, 0 < i < k, unless H has reached h classes; that is
at most h - 1 compositions. The exponent vectors of the classes over the
generators give one relation k e_j - vec(g^k) per generator, a lower
triangular matrix with at most log2 h rows; the elementary divisors
are the nontrivial diagonal of its Smith normal form (Cohen, GTM 138,
Alg. 2.4.14). The form (p, b, c) of a prime ideal of norm p takes the
least b of the same square roots as the enumeration: the growth bound is
never above the largest leading coefficient enumerated, and p is inert
when there is no root. The group keeps prime_growth, the pairs (p, |H|
after p): the subgroup generated by the primes up to any bound is a
prefix of the growth, so the generation check, and B(d), are lookups.
All of it is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factorize, is_probable_prime
from .errors import ArithmeticInvariantError
from .rational_sieve import default_table

__all__ = [
    "is_fundamental_discriminant",
    "enumerate_fundamental_discriminants",
    "form_disc",
    "class_group",
    "ClassGroupDescription",
    "PrimeClassInfo",
    "prime_class",
    "generated_by_primes_up_to",
]


def form_disc(form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def is_fundamental_discriminant(d: int) -> bool:
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


def enumerate_fundamental_discriminants(bound: int):
    """All fundamental discriminants with |d| < bound, sorted by |d| then sign.

    A squarefree sieve over n = |d| < bound, then the mod-4 rules: d = 1 (mod 4)
    squarefree, or d = 4m with m = 2, 3 (mod 4) squarefree.
    """
    n = np.arange(max(bound, 1))
    squarefree = np.ones(n.size, dtype=bool)
    squarefree[0] = False
    for p in default_table().primes_up_to(math.isqrt(n.size - 1)).tolist():
        squarefree[p * p :: p * p] = False
    r, m = n % 4, n // 4
    four_m = (r == 0) & squarefree[m]
    positive = ((r == 1) & squarefree & (n > 1)) | (four_m & (m % 4 >= 2))
    # -n = 1 (mod 4) when n = 3 (mod 4); -m = 2, 3 (mod 4) when m = 2, 1 (mod 4)
    negative = ((r == 3) & squarefree) | (four_m & ((m % 4 == 1) | (m % 4 == 2)))
    keep = np.stack([negative, positive], axis=1)
    return np.stack([-n, n], axis=1)[keep].tolist()


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def _reduce_definite(form, d):
    a, b, c = form
    if a <= 0:
        raise ValueError("positive definite forms need a > 0")
    while True:
        # normalize b into (-a, a]
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        c = (r * r - d) // (4 * a)
        b = r
        if a <= c:
            break
        a, b, c = c, -b, a
    if (a == c or b == -a) and b < 0:
        b = -b
    return (a, b, c)


def _is_reduced_indefinite(form, d, sq):
    a, b, _ = form
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a) - b
    if t >= 0 and t * t >= d:
        return False
    s = 2 * abs(a) + b
    return s * s > d


def _rho(form, d, sq):
    # step to the neighbour form on the cycle
    a, b, c = form
    two_c = 2 * abs(c)
    if abs(c) <= sq:
        lo = sq + 1 - two_c
    else:
        lo = 1 - abs(c)
    bp = lo + ((-b - lo) % two_c)
    cp, rem = divmod(bp * bp - d, 4 * c)
    if rem:
        raise ArithmeticInvariantError(f"rho step from {form} left the discriminant {d}")
    return (c, bp, cp)


def _reduce_indefinite(form, d, sq):
    for _ in range(10000):
        if _is_reduced_indefinite(form, d, sq):
            return form
        form = _rho(form, d, sq)
    raise ArithmeticInvariantError(f"reduction did not terminate for {form}, d={d}")


def _cycle(form, d, sq):
    """Full rho-cycle through a reduced form; the cycle is the narrow class."""
    out = [form]
    f = _rho(form, d, sq)
    while f != form:
        out.append(f)
        f = _rho(f, d, sq)
    return out


def _prime_factor_table(n):
    """pf[m] is a prime factor of m for 2 <= m <= n (pf[0] and pf[1] unused)."""
    pf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        # a composite p was already written by a prime q <= sqrt(p)
        if pf[p] == p:
            pf[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return pf


def _crt(rs, m, ss, n):
    """Every x mod m*n with x = r (mod m) and x = s (mod n), r in rs, s in ss;
    gcd(m, n) = 1."""
    if not rs or not ss:
        return []
    k = pow(m, -1, n)
    return [r + m * ((s - r) * k % n) for r in rs for s in ss]


def _sqrt_mod_prime(d, p):
    """A square root of the quadratic residue d modulo the odd prime p (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    t, r = pow(d, q, p), pow(d, (q + 1) // 2, p)
    if t == 1:
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _square_roots(d, pf):
    """For the fundamental discriminant d, the function a -> every b in
    [0, 2a) with b^2 = d (mod 4a). pf[k] is a prime factor of k for every
    k > 1 that divides the odd part of a.

    b mod 2a splits by CRT into b mod m, a root of d modulo the odd part m
    of a, and b mod 2^(e+1) for 2^e || a, a residue whose square is d mod
    2^(e+2). The roots modulo m join the roots modulo each prime power
    p^k || m (Tonelli-Shanks, then Newton lifting; an odd p dividing d
    divides it once, so only k = 1 has a root there) and are memoised on
    m; the 2-part lifts one bit per e.
    """
    odd = {1: [0]}
    two = [[d % 2]]  # two[e]: the residues mod 2^(e+1)

    def odd_roots(m):
        roots = odd.get(m)
        if roots is None:
            p = q = pf[m]
            while m // q % p == 0:
                q *= p
            if q < m:
                roots = _crt(odd_roots(q), q, odd_roots(m // q), m // q)
            elif d % p == 0:
                roots = [0] if q == p else []
            elif pow(d, (p - 1) // 2, p) != 1:
                roots = []
            else:
                r, n = _sqrt_mod_prime(d % p, p), p
                while n < q:
                    n *= p
                    r = (r - (r * r - d) * pow(2 * r, -1, n)) % n
                roots = [r, q - r]
            odd[m] = roots
        return roots

    def roots(a):
        e = (a & -a).bit_length() - 1
        while len(two) <= e:
            n = 2 << len(two)
            two.append([t for s in two[-1] for t in (s, s + n // 2) if (t * t - d) % (2 * n) == 0])
        return _crt(odd_roots(a >> e), a >> e, two[e], 2 << e)

    return roots


def _max_leading(d):
    """The largest |a| of a reduced form: sqrt(|d|/3) for d < 0, sqrt(d) for d > 0."""
    return math.isqrt(-d // 3) if d < 0 else math.isqrt(d)


def _enumerate_reduced(d, roots):
    """Every reduced form of the fundamental discriminant d, sorted; roots is
    _square_roots(d, pf) with pf covering every a up to _max_leading(d).

    Leading coefficients run over 1 <= a <= sqrt(|d|/3) for d < 0 and over
    1 <= |a| <= sqrt(d) for d > 0; each class b mod 2a with b^2 = d (mod 4a)
    gives at most one reduced form per sign of a, read off below.
    """
    amax = _max_leading(d)
    out = []
    if d < 0:
        for a in range(1, amax + 1):
            for b in roots(a):
                if b > a:
                    b -= 2 * a
                c = (b * b - d) // (4 * a)
                # b in (-a, a], c >= a, and b >= 0 when a = c
                if c > a or (c == a and b >= 0):
                    out.append((a, b, c))
        return sorted(out)
    sq = amax
    for a in range(1, sq + 1):
        # the reduced b lie in (|sqrt d - 2a|, sqrt d), an interval no longer
        # than 2a, so each root class meets it at most once: at its least
        # member above the lower end, which is lo - 1 < |sqrt d - 2a| < lo
        lo = sq - 2 * a + 1 if 2 * a <= sq else 2 * a - sq
        for b0 in roots(a):
            b = lo + (b0 - lo) % (2 * a)
            c = (b * b - d) // (4 * a)
            if _is_reduced_indefinite((a, b, c), d, sq):
                out += [(a, b, c), (-a, b, -c)]
    return sorted(out)


# ----------------------------------------------------------------------
# composition and group structure
# ----------------------------------------------------------------------
def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _compose_raw(f1, f2, d):
    """Form in the product class (Cohen, GTM 138, Alg. 5.4.7); inputs need a > 0."""
    a1, b1, _ = f1
    a2, b2, c2 = f2
    if a1 <= 0 or a2 <= 0:
        raise ArithmeticInvariantError(f"composition needs a > 0, got {f1} and {f2}")
    s = (b1 + b2) // 2
    g, y1, _ = _xgcd(a2, a1)
    d1, x2, y2 = _xgcd(s, g)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * y2 * (b2 - s) - x2 * c2) % v1
    A, B = v1 * v2, b2 + 2 * v2 * r
    C, rem = divmod(B * B - d, 4 * A)
    if rem:
        raise ArithmeticInvariantError(
            f"composing {f1} and {f2} gave ({A}, {B}, .), not of discriminant {d}"
        )
    return (A, B, C)


def _smith_invariants(rows):
    """Nontrivial invariant factors, ascending and each dividing the next,
    of Z^n modulo the lattice spanned by the rows of a nonsingular n x n
    integer matrix: the diagonal of its Smith normal form without the 1s.

    At step t the least nonzero entry of the lower-right block is moved to
    (t, t) and its row and column are reduced modulo it; a nonzero
    remainder, or an entry of the block it does not divide, gives a smaller
    pivot, so the step ends with a pivot dividing the rest of the block.
    """
    a = [list(r) for r in rows]
    n = len(a)
    out = []
    for t in range(n):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not nonzero:
                raise ArithmeticInvariantError(f"relation matrix {rows} is singular")
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1 :]):
                continue
            bad = next((i for i in range(t + 1, n) for x in a[i][t + 1 :] if x % p), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        if abs(p) > 1:
            out.append(abs(p))
    return tuple(out)


# ----------------------------------------------------------------------
# class group description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrimeClassInfo:
    prime: int
    status: str  # "split", "ramified", or "inert"
    form: tuple | None  # canonical class of a prime ideal above p; None when inert


class ClassGroupDescription:
    """Ordinary (wide) class group of the quadratic order of discriminant d."""

    def __init__(self, disc: int):
        if not is_fundamental_discriminant(disc):
            raise ValueError(f"{disc} is not a fundamental discriminant")
        self.disc = disc
        self._sq = math.isqrt(disc) if disc > 0 else 0
        roots = _square_roots(disc, _prime_factor_table(_max_leading(disc)))
        reduced = _enumerate_reduced(disc, roots)
        # _class maps every reduced form to the least reduced form of its wide class
        if disc < 0:
            self._class = {f: f for f in reduced}
            self.narrow_class_number = len(reduced)
        else:
            # a rho-cycle is a narrow class; (a, b, c) and (-a, b, -c) differ
            # by the class of sqrt(d), of norm -d < 0, so the wide class of a
            # cycle is its union with the cycle of any partner (-a, b, -c)
            self._class = {}
            self.narrow_class_number = 0
            for a, b, c in reduced:
                if (a, b, c) in self._class:
                    continue
                union = _cycle((a, b, c), disc, self._sq)
                self.narrow_class_number += 1
                if (-a, b, -c) not in union:
                    union += _cycle((-a, b, -c), disc, self._sq)
                    self.narrow_class_number += 1
                self._class.update(dict.fromkeys(union, min(union)))
        self.representatives = tuple(sorted(set(self._class.values())))
        self.h = len(self.representatives)
        b0 = disc % 2
        self.identity = self.class_of((1, b0, (b0 * b0 - disc) // 4))
        self.prime_growth, relations = self._grow(roots)
        self.elementary_divisors = _smith_invariants(relations)
        if math.prod(self.elementary_divisors) != self.h:
            raise ArithmeticInvariantError(
                f"elementary divisors {self.elementary_divisors} of d={disc} multiply to "
                f"{math.prod(self.elementary_divisors)}, not h={self.h}"
            )

    # -- internal helpers ------------------------------------------------
    def _grow(self, roots):
        """Grow H, the subgroup generated by the classes of the primes
        2, 3, 5, ..., one prime at a time until it is the whole group.

        A class g outside H of order k modulo H takes k - 1 compositions for
        its powers. Unless H g^0, ..., H g^(k-1) is the whole group, the
        cosets H g^i, 0 < i < k, follow as the products x g^i for x in H,
        (|H| - 1)(k - 1) compositions, so that later classes can be looked
        up; at most h - 1 compositions in all. Each class of H has its
        exponent vector over the generators so far, and the j-th generator
        g gives the relation k e_j - vec(g^k).

        Returns prime_growth, the pairs (p, |H| after p) of the primes whose
        class enlarged H, and the relation rows, lower triangular with the
        orders k on the diagonal. Prime ideals of norm up to sqrt(|d|/3)
        (d < 0: every class has a reduced form with a that small) or
        sqrt(d)/2 (d > 0, Minkowski) generate the group.
        """
        vec = {self.identity: ()}  # the classes of H, in the order found
        size, growth, relations = 1, [], []
        for p in default_table().primes_up_to(_generating_prime_bound(self.disc)).tolist():
            if size == self.h:
                break
            form = _prime_form(self.disc, p, roots)[1]
            if form is None:
                continue
            g = self.class_of(form)
            if g in vec:
                continue
            # g, g^2, ..., g^(k-1), for the least k with g^k in H
            powers, gk = [], g
            while gk not in vec:
                powers.append(gk)
                gk = self.compose(gk, g)
            j, k = len(relations), len(powers) + 1
            v = vec[gk]
            relations.append(tuple(-e for e in v) + (0,) * (j - len(v)) + (k,))
            size *= k
            growth.append((p, size))
            if size < self.h:
                for x, v in list(vec.items()):
                    v += (0,) * (j - len(v))
                    xs = powers if x == self.identity else [self.compose(x, y) for y in powers]
                    vec.update(zip(xs, [v + (i,) for i in range(1, k)]))
        if size != self.h:
            raise ArithmeticInvariantError(
                f"the classes of the primes up to {_generating_prime_bound(self.disc)} "
                f"generate {size} of the {self.h} classes of d={self.disc}"
            )
        r = len(relations)
        return tuple(growth), [row + (0,) * (r - len(row)) for row in relations]

    def _reduce(self, form):
        if self.disc < 0:
            return _reduce_definite(form, self.disc)
        return _reduce_indefinite(form, self.disc, self._sq)

    def _positive_rep(self, form):
        if form[0] > 0:
            return form
        # neighbours on the cycle alternate the sign of a
        return _rho(form, self.disc, self._sq)

    # -- public operations -----------------------------------------------
    @property
    def prime_bound(self) -> int:
        """B(d): the least bound x such that the prime ideals of norm <= x
        generate the group, the last prime of prime_growth (1 when h = 1)."""
        return self.prime_growth[-1][0] if self.prime_growth else 1

    def class_of(self, form) -> tuple:
        """Canonical representative of the wide class of a form of this discriminant."""
        if form_disc(form) != self.disc:
            raise ValueError(f"form {form} has discriminant {form_disc(form)}, not {self.disc}")
        return self._class[self._reduce(form)]

    def compose(self, f, g) -> tuple:
        """Wide class of the product; a representative is used as it is, any
        other form of this discriminant is canonicalised by class_of first."""
        # every wide representative is a key of _class that maps to itself
        if self._class.get(f) != f:
            f = self.class_of(f)
        if self._class.get(g) != g:
            g = self.class_of(g)
        # _compose_raw has checked the product's discriminant
        prod = _compose_raw(self._positive_rep(f), self._positive_rep(g), self.disc)
        return self._class[self._reduce(prod)]


# the most recent groups only: one holds about 128 kB near |d| = 9*10^5, so
# an unbounded cache over a census of every |d| <= 10^6 would hold tens of GB
_CLASS_GROUP_CACHE_SIZE = 32


@lru_cache(maxsize=_CLASS_GROUP_CACHE_SIZE)
def class_group(disc: int) -> ClassGroupDescription:
    return ClassGroupDescription(disc)


# ----------------------------------------------------------------------
# prime ideals
# ----------------------------------------------------------------------
def _generating_prime_bound(disc: int) -> int:
    """A bound whose prime ideals generate the class group: floor(sqrt(|d|/3))
    for d < 0, floor(sqrt(d)/2) (Minkowski) for d > 0."""
    return math.isqrt(-disc // 3) if disc < 0 else math.isqrt(disc) // 2


def _prime_form(disc: int, p: int, roots):
    """(status, form) of a prime ideal of norm p: (p, b, c) for the least
    b in roots(p), the b in [0, 2p) with b^2 = disc (mod 4p), or ("inert",
    None) when there is none."""
    bs = roots(p)
    if not bs:
        return "inert", None
    b = min(bs)
    c, rem = divmod(b * b - disc, 4 * p)
    if rem:
        raise ArithmeticInvariantError(f"{b} is not a square root of {disc} modulo {4 * p}")
    return ("ramified" if disc % p == 0 else "split"), (p, b, c)


def prime_class(disc: int, p: int) -> PrimeClassInfo:
    """Class of a prime ideal of norm p, or the inert marker."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    status, form = _prime_form(disc, p, _square_roots(disc, {p: p}))
    if form is None:
        return PrimeClassInfo(p, status, None)
    return PrimeClassInfo(p, status, class_group(disc).class_of(form))


def generated_by_primes_up_to(disc: int, bound: float):
    """Do the classes of prime ideals of norm <= bound generate the class group?

    Returns (generates, subgroup_order). The subgroup is the class group's
    prime growth up to the last prime <= bound, so no composition is made.
    """
    group = class_group(disc)
    order = 1
    for p, size in group.prime_growth:
        if p > bound:
            break
        order = size
    return order == group.h, order
