"""Exact polynomial arithmetic over Z, Q and GF(p).

Polynomials are dense coefficient lists, constant term first, trailing
zeros stripped; the zero polynomial is the empty list. Everything here is
exact integer or Fraction arithmetic: resultants via fraction-free
elimination, real-root counts via Sturm chains, and the mod-p toolkit
(squarefree decomposition in characteristic p, distinct-degree splitting,
factorization shapes, which also decide irreducibility, and index
certification at a prime) that the number-field layer is built on.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArithmeticInvariantError

__all__ = [
    "poly_trim",
    "poly_sub",
    "poly_mul",
    "poly_eval",
    "poly_deriv",
    "poly_is_monic",
    "resultant",
    "discriminant",
    "sturm_real_roots",
    "signature",
    "gf_normalize",
    "gf_mul",
    "gf_divmod",
    "gf_gcd",
    "gf_pow_mod",
    "gf_deriv",
    "gf_monic",
    "gf_squarefree_decomposition",
    "gf_distinct_degree",
    "gf_factor_shape",
    "dedekind_index_certified",
]


# ----------------------------------------------------------------------
# integer / rational layer
# ----------------------------------------------------------------------
def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return poly_trim(out)


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_deriv(a):
    return poly_trim([i * c for i, c in enumerate(a)][1:])


def poly_is_monic(a):
    return bool(a) and a[-1] == 1


def _int_det(rows):
    # Bareiss fraction-free elimination; exact for integer entries
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def resultant(f, g):
    """Resultant of f and g; for monic f this is the product of g over the roots of f."""
    f = poly_trim(f)
    g = poly_trim(g)
    if not f or not g:
        return 0
    m = len(f) - 1
    n = len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    # Sylvester matrix, highest coefficients first
    fr = list(reversed(f))
    gr = list(reversed(g))
    rows = []
    for i in range(n):
        rows.append([0] * i + fr + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gr + [0] * (m - 1 - i))
    return _int_det(rows)


def discriminant(f):
    """Discriminant of a monic integer polynomial."""
    f = poly_trim(f)
    if not poly_is_monic(f):
        raise ValueError("discriminant implemented for monic polynomials only")
    n = len(f) - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return 1
    res = resultant(f, poly_deriv(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def _frac_rem(a, b):
    # remainder of a by b over Fraction
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while len(a) >= len(b):
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= coef * c
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def sturm_real_roots(f):
    """Number of distinct real roots of a squarefree integer polynomial."""
    f = poly_trim(f)
    if len(f) <= 1:
        raise ValueError("degree must be at least 1")
    chain = [[Fraction(c) for c in f], [Fraction(c) for c in poly_deriv(f)]]
    while len(chain[-1]) > 1:
        rem = _frac_rem(chain[-2], chain[-1])
        if not rem:
            raise ValueError("polynomial is not squarefree")
        chain.append([-c for c in rem])
    if chain[-1] == []:
        raise ValueError("polynomial is not squarefree")

    def variations(at_plus_inf):
        signs = []
        for poly in chain:
            lead = poly[-1]
            deg = len(poly) - 1
            s = 1 if lead > 0 else -1
            if not at_plus_inf and deg % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def signature(f):
    """(r1, r2) for an irreducible monic integer polynomial."""
    f = poly_trim(f)
    n = len(f) - 1
    r1 = sturm_real_roots(f)
    if (n - r1) % 2:
        raise ValueError("parity mismatch; is the polynomial squarefree?")
    return r1, (n - r1) // 2


# ----------------------------------------------------------------------
# GF(p) layer
# ----------------------------------------------------------------------
def gf_normalize(a, p):
    out = [c % p for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = (a[-1] * binv) % p
        shift = len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % p
        while a and a[-1] == 0:
            a.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, a


def gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def gf_gcd(a, b, p):
    a = gf_normalize(a, p)
    b = gf_normalize(b, p)
    while b:
        _, a = gf_divmod(a, b, p)
        a, b = b, a
    return gf_monic(a, p)


def gf_pow_mod(base, e, mod, p):
    result = [1]
    base = gf_divmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = gf_divmod(gf_mul(result, base, p), mod, p)[1]
        base = gf_divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def gf_deriv(a, p):
    return gf_normalize([i * c for i, c in enumerate(a)][1:], p)


def _gf_pth_root(a, p):
    # over the prime field Frobenius is the identity, so the p-th root of
    # sum a_{pi} x^{pi} is sum a_{pi} x^i
    return [a[i] for i in range(0, len(a), p)]


def gf_squarefree_decomposition(f, p):
    """Multiplicity decomposition f = prod g_m^m with each g_m squarefree, monic.

    Returns a sorted list of (g_m, m) with deg g_m >= 1. Handles the
    characteristic-p degeneracy f' = 0 via p-th roots.
    """
    f = gf_monic(gf_normalize(f, p), p)
    out = {}
    _sff(f, p, 1, out)
    merged = []
    for m in sorted(out):
        g = [1]
        for part in out[m]:
            g = gf_mul(g, part, p)
        merged.append((g, m))
    return merged


def _sff(f, p, mult, out):
    if len(f) <= 1:
        return
    d = gf_deriv(f, p)
    if not d:
        _sff(_gf_pth_root(f, p), p, mult * p, out)
        return
    c = gf_gcd(f, d, p)
    w = gf_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = gf_gcd(w, c, p)
        z = gf_divmod(w, y, p)[0]
        if len(z) > 1:
            out.setdefault(mult * i, []).append(z)
        i += 1
        w = y
        c = gf_divmod(c, y, p)[0]
    if len(c) > 1:
        _sff(_gf_pth_root(c, p), p, mult * p, out)


def gf_distinct_degree(f, p):
    """Distinct-degree split of a squarefree monic f: list of (product, degree).

    Each product collects all irreducible factors of the given degree; the
    count of factors is deg(product)/degree. The factors themselves are not
    separated (no equal-degree stage is needed downstream).
    """
    v = gf_monic(gf_normalize(f, p), p)
    out = []
    h = [0, 1]
    d = 0
    # once deg v < 2(d+1) whatever remains is a single irreducible factor
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, v, p)
        diff = gf_normalize(poly_sub(h, [0, 1]), p)
        g = gf_gcd(diff, v, p)
        if len(g) > 1:
            out.append((g, d))
            v = gf_divmod(v, g, p)[0]
            h = gf_divmod(h, v, p)[1]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def gf_factor_shape(f, p):
    """Factorization shape of monic f mod p: sorted list of (e, deg) pairs,
    one entry per irreducible factor, with multiplicity e and degree deg."""
    shape = []
    for g, mult in gf_squarefree_decomposition(f, p):
        for prod, d in gf_distinct_degree(g, p):
            count = (len(prod) - 1) // d
            shape.extend([(mult, d)] * count)
    return sorted(shape)


def dedekind_index_certified(f, p):
    """True when p does not divide the index of Z[x]/(f) in the maximal order.

    Standard criterion: with fbar = prod gbar_i^{e_i}, gbar the radical and
    hbar = fbar/gbar, lift to monic g, h over Z and set t = (g h - f)/p;
    the prime is certified exactly when gcd(tbar, gbar, hbar) = 1.
    """
    f = poly_trim(f)
    if not poly_is_monic(f):
        raise ValueError("index certification needs a monic polynomial")
    radical = [1]
    for g, _ in gf_squarefree_decomposition(f, p):
        radical = gf_mul(radical, g, p)
    hbar = gf_divmod(gf_normalize(f, p), radical, p)[0]
    g_lift = [c % p for c in radical]
    h_lift = [c % p for c in hbar]
    prod = poly_mul(g_lift, h_lift)
    diff = poly_sub(prod, f)
    if any(c % p for c in diff):
        raise ArithmeticInvariantError(f"g h - f is not divisible by p={p} for f={f}")
    t = [c // p for c in diff]
    tbar = gf_normalize(t, p)
    d = gf_gcd(gf_gcd(tbar, radical, p), hbar, p)
    return len(d) <= 1
