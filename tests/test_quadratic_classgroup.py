"""Form class groups: frozen class numbers, group laws, analytic oracle.

The independent oracle for negative discriminants is the finite character
sum h = w/(2|d|) |sum a chi_d(a)|, evaluated exactly in integers; structure
constants (elementary divisors, ambiguous-class counts) are checked against
two-torsion genus counts and, for the elementary divisors, against the
p-torsion counts of tests/torsion_invariants.py. Positive-discriminant values are classical
frozen table entries with the narrow/wide distinction worked by hand, and
the wide classes are checked against composition with the norm -1
template. Orders and inverses, which only the tests need, are computed
here by repeated composition.
"""

import itertools
import math
import random

import pytest

from genbound import quadratic_classgroup
from genbound.arith import is_probable_prime, kronecker
from genbound.errors import ArithmeticInvariantError
from genbound.quadratic_classgroup import (
    _CLASS_GROUP_CACHE_SIZE,
    PrimeClassInfo,
    _compose_raw,
    _cycle,
    _enumerate_reduced,
    _max_leading,
    _prime_factor_table,
    _reduce_indefinite,
    _rho,
    _smith_invariants,
    _sqrt_mod_prime,
    _square_roots,
    class_group,
    enumerate_fundamental_discriminants,
    form_disc,
    generated_by_primes_up_to,
    is_fundamental_discriminant,
    prime_class,
)
from reduced_forms_scan import enumerate_reduced_by_scan
from torsion_invariants import abelian_invariants


def reduced_forms(d):
    """_enumerate_reduced with the square roots a class group builds for it."""
    return _enumerate_reduced(d, _square_roots(d, _prime_factor_table(_max_leading(d))))


def inverse(G, f):
    a, b, c = G.class_of(f)
    return G.class_of((a, -b, c))


def order_of(G, f):
    """Order of the class of f, by repeated composition."""
    f = G.class_of(f)
    k, x = 1, f
    while x != G.identity:
        x = G.compose(x, f)
        k += 1
    return k


def dirichlet_h(d):
    """Exact class number of the imaginary quadratic field of fundamental
    discriminant d via the character sum formula."""
    assert d < 0
    w = 6 if d == -3 else 4 if d == -4 else 2
    s = sum(kronecker(d, a) * a for a in range(1, abs(d)))
    num = w * abs(s)
    den = 2 * abs(d)
    assert num % den == 0
    return num // den


# ----------------------------------------------------------------------
# fundamental discriminants
# ----------------------------------------------------------------------
def test_is_fundamental():
    for d in (-3, -4, -7, -8, 5, 8, 12, 13, 28, -20, -163, 316):
        assert is_fundamental_discriminant(d)
    for d in (0, 1, -1, 4, -9, 9, -12, 25, 45, -16, 100):
        assert not is_fundamental_discriminant(d)


def test_enumerate_fundamental():
    fds = enumerate_fundamental_discriminants(80)
    assert len(fds) == 49
    assert fds[:12] == [-3, -4, 5, -7, -8, 8, -11, 12, 13, -15, 17, -19]
    assert all(is_fundamental_discriminant(d) for d in fds)
    assert all(abs(d) < 80 for d in fds)


def test_enumerate_fundamental_matches_definition():
    # the sieve against is_fundamental_discriminant, order included
    def by_definition(lo, hi):
        out = [d for d in range(-hi + 1, hi) if lo <= abs(d) and is_fundamental_discriminant(d)]
        return sorted(out, key=lambda d: (abs(d), d))

    for bound in (-1, 0, 1, 2, 5, 80, 3000):
        assert enumerate_fundamental_discriminants(bound) == by_definition(0, bound), bound
    big = enumerate_fundamental_discriminants(100_000)
    assert len(big) == 60_786
    assert [d for d in big if abs(d) >= 98_000] == by_definition(98_000, 100_000)
    assert len(enumerate_fundamental_discriminants(1_000_000)) == 607_925


# ----------------------------------------------------------------------
# reduced forms
# ----------------------------------------------------------------------
def test_enumeration_matches_scan_small():
    for d in enumerate_fundamental_discriminants(3000):
        assert reduced_forms(d) == sorted(enumerate_reduced_by_scan(d)), d


def test_enumeration_matches_scan_seeded():
    rng = random.Random(7)
    for sign in (-1, 1):
        picked = set()
        while len(picked) < 20:
            d = sign * rng.randrange(10_000, 200_000)
            if is_fundamental_discriminant(d):
                picked.add(d)
        for d in sorted(picked):
            assert reduced_forms(d) == sorted(enumerate_reduced_by_scan(d)), d


def test_enumeration_frozen_counts():
    assert len(reduced_forms(-9_999_991)) == 1_715
    assert len(reduced_forms(9_999_993)) == 3_996


def test_square_roots_match_brute_force():
    # d = 1 and 5 (mod 8), d = 0 (mod 4) with d/4 = 2 and 3 (mod 4), and
    # discriminants divisible by every odd prime up to 13 or 11
    discs = (-7, 17, -9_999_991, -3, 13, 9_999_993, -4, 8, 12, -20, -15_015, 4_620)
    pf = _prime_factor_table(300)
    for d in discs:
        assert is_fundamental_discriminant(d), d
        roots = _square_roots(d, pf)
        for a in range(1, 301):
            want = [b for b in range(2 * a) if (b * b - d) % (4 * a) == 0]
            assert sorted(roots(a)) == want, (d, a)


def test_sqrt_mod_prime_every_residue():
    for p in (q for q in range(3, 600, 2) if is_probable_prime(q)):
        for n in {x * x % p for x in range(1, p)}:
            assert _sqrt_mod_prime(n, p) ** 2 % p == n, (n, p)


def test_prime_factor_table():
    pf = _prime_factor_table(2000)
    for m in range(2, 2001):
        assert m % pf[m] == 0 and is_probable_prime(pf[m]), m


# ----------------------------------------------------------------------
# frozen class groups
# ----------------------------------------------------------------------
def test_definite_frozen():
    expect = {
        -3: (1, ()), -4: (1, ()), -20: (2, (2,)), -23: (3, (3,)),
        -47: (5, (5,)), -84: (4, (2, 2)), -163: (1, ()),
        # the first discriminants of 3-rank 2
        -3299: (27, (3, 9)), -4027: (9, (3, 3)),
    }
    for d, (h, eldiv) in expect.items():
        G = class_group(d)
        assert G.h == h
        assert G.elementary_divisors == eldiv


def test_indefinite_frozen():
    # (wide h, narrow h): narrow exceeds wide exactly when no unit of norm -1
    expect = {
        5: (1, 1), 8: (1, 1), 12: (1, 2), 13: (1, 1),
        40: (2, 2), 60: (2, 4), 229: (3, 3), 316: (3, 6),
    }
    for d, (h, hn) in expect.items():
        G = class_group(d)
        assert G.h == h, d
        assert G.narrow_class_number == hn, d


def test_dirichlet_oracle():
    for d in enumerate_fundamental_discriminants(300):
        if d > -3:
            continue
        assert class_group(d).h == dirichlet_h(d), d


def test_two_torsion_matches_genus_count():
    # number of classes killed by squaring is 2^(t-1), t = number of prime
    # divisors of the discriminant
    for d in (-20, -23, -47, -84, -120, -163, -231):
        if not is_fundamental_discriminant(d):
            continue
        G = class_group(d)
        t = len(factor_primes(d))
        two_torsion = sum(
            1 for f in G.representatives if G.compose(f, f) == G.identity
        )
        assert two_torsion == 2 ** (t - 1), d


def factor_primes(d):
    n = abs(d)
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def test_non_fundamental_rejected():
    for d in (-12, 9, 0, 1, -16, 45):
        with pytest.raises(ValueError):
            class_group.__wrapped__(d)


# ----------------------------------------------------------------------
# group laws
# ----------------------------------------------------------------------
def test_group_laws_definite():
    for d in (-20, -23, -47, -84, -104):
        G = class_group(d)
        reps = G.representatives
        assert G.identity in reps
        for f in reps:
            assert form_disc(f) == d
            assert G.compose(f, G.identity) == f
            assert G.compose(f, inverse(G, f)) == G.identity
            assert G.h % order_of(G, f) == 0
        for f in reps:
            for g in reps:
                assert G.compose(f, g) == G.compose(g, f)
                assert G.compose(f, g) in reps
        # associativity on all triples for the smaller groups
        if G.h <= 5:
            for f in reps:
                for g in reps:
                    for k in reps:
                        assert G.compose(G.compose(f, g), k) == G.compose(
                            f, G.compose(g, k)
                        )


def test_group_laws_indefinite():
    for d in (40, 60, 229, 316):
        G = class_group(d)
        for f in G.representatives:
            assert G.compose(f, inverse(G, f)) == G.identity
            assert G.h % order_of(G, f) == 0
        for f in G.representatives:
            for g in G.representatives:
                assert G.compose(f, g) == G.compose(g, f)


def test_exponent_is_last_divisor():
    for d in (-84, -23, -47, -120, 316):
        G = class_group(d)
        if not G.elementary_divisors:
            continue
        assert max(order_of(G, f) for f in G.representatives) == G.elementary_divisors[-1]


def test_cyclic_cubic_relations():
    G = class_group(-23)
    assert G.representatives == ((1, 1, 6), (2, -1, 3), (2, 1, 3))
    g = (2, 1, 3)
    assert G.compose(g, g) == inverse(G, g) == (2, -1, 3)
    assert order_of(G, g) == 3


def test_composition_represents_products():
    # the square of the norm-2 class of disc -20 is principal, and the
    # principal form represents 2*3 = 6 as 1 + 5*1
    G = class_group(-20)
    sq = G.compose((2, 2, 3), (2, 2, 3))
    assert sq == (1, 0, 5)
    assert 1 * 1 + 5 * 1 * 1 == 6


def test_class_of_accepts_unreduced():
    G = class_group(-20)
    # (7, 8, 3) has discriminant 64 - 84 = -20 and is equivalent to (2, 2, 3)
    assert form_disc((7, 8, 3)) == -20
    assert G.class_of((7, 8, 3)) == (2, 2, 3)
    with pytest.raises(ValueError):
        G.class_of((1, 0, 1))  # wrong discriminant


def test_torsion_counts_match_elementary_divisors():
    # |{x : x^m = 1}| = prod gcd(m, n_i) for every m | h, orders counted
    # by repeated composition
    for d in enumerate_fundamental_discriminants(1000):
        G = class_group(d)
        orders = [order_of(G, f) for f in G.representatives]
        for m in (m for m in range(1, G.h + 1) if G.h % m == 0):
            want = math.prod(math.gcd(m, n) for n in G.elementary_divisors)
            assert sum(m % k == 0 for k in orders) == want, (d, m)


def test_elementary_divisors_match_torsion_oracle():
    for d in enumerate_fundamental_discriminants(3000):
        G = class_group(d)
        want = abelian_invariants(G.representatives, G.compose, G.identity)
        assert G.elementary_divisors == tuple(want), d


def test_class_group_cache_is_bounded():
    for d in enumerate_fundamental_discriminants(400)[: _CLASS_GROUP_CACHE_SIZE + 8]:
        class_group(d)
    assert class_group.cache_info().currsize <= _CLASS_GROUP_CACHE_SIZE


def test_compose_matches_dirichlet_united_form():
    # for coprime leading coefficients a1, a2 > 0 the product class holds
    # (a1 a2, B, .) with B = b1 (mod 2 a1) and B = b2 (mod 2 a2)
    checked = 0
    for d in enumerate_fundamental_discriminants(1000):
        G = class_group(d)
        for a1, b1, c1 in G.representatives:
            for a2, b2, c2 in G.representatives:
                if a1 <= 0 or a2 <= 0 or math.gcd(a1, a2) != 1:
                    continue
                B = b1 + 2 * a1 * ((b2 - b1) // 2 * pow(a1, -1, a2) % a2)
                united = (a1 * a2, B, (B * B - d) // (4 * a1 * a2))
                assert G.compose((a1, b1, c1), (a2, b2, c2)) == G.class_of(united)
                checked += 1
    assert checked > 1000


def test_broken_invariants_raise():
    # forms of discriminants -20 and -23 have no composition
    with pytest.raises(ArithmeticInvariantError):
        _compose_raw((2, 2, 3), (2, 1, 3), -20)


def test_torsion_oracle_rejects_non_groups():
    # multiplication mod 4 is no group: its 2-torsion count stops at 2 of 4
    with pytest.raises(ArithmeticInvariantError):
        abelian_invariants([0, 1, 2, 3], lambda x, y: x * y % 4, 1)
    # a "squaring" that kills 3 of 8 elements, then all of them
    squares = [0, 0, 0, 1, 1, 1, 1, 1]
    with pytest.raises(ArithmeticInvariantError):
        abelian_invariants(list(range(8)), lambda x, y: y if x == 0 else squares[x], 0)
    # a "composition" that never reaches the identity must not loop
    with pytest.raises(ArithmeticInvariantError):
        abelian_invariants(list(range(9)), lambda x, y: y, 0)


def test_growth_out_of_primes_raises(monkeypatch):
    # the class group of -84 is (2, 2); the class of 2 alone spans half of it
    monkeypatch.setattr(quadratic_classgroup, "_generating_prime_bound", lambda d: 2)
    with pytest.raises(ArithmeticInvariantError):
        class_group.__wrapped__(-84)


def test_divisor_product_not_h_raises(monkeypatch):
    monkeypatch.setattr(quadratic_classgroup, "_smith_invariants", lambda rows: (2,))
    with pytest.raises(ArithmeticInvariantError):
        class_group.__wrapped__(-84)


# ----------------------------------------------------------------------
# Smith normal form of the relation matrix
# ----------------------------------------------------------------------
def _determinant(m):
    # cofactor expansion along the first row; the matrices here are tiny
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _determinant([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def invariants_by_minors(m):
    """Invariant factors from the determinantal divisors: the k-th is
    D_k / D_(k-1), D_k the gcd of the k x k minors."""
    n, out, prev = len(m), [], 1
    for k in range(1, n + 1):
        dk = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                dk = math.gcd(dk, _determinant([[m[i][j] for j in cols] for i in rows]))
        out.append(dk // prev)
        prev = dk
    return tuple(x for x in out if x != 1)


def test_smith_invariants_hand_made():
    assert _smith_invariants([[6, 0], [0, 4]]) == (2, 12)
    assert _smith_invariants([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ()
    assert _smith_invariants([]) == ()
    assert _smith_invariants([[5]]) == (5,)
    assert _smith_invariants([[-5]]) == (5,)
    # a relation row k e_j - vec(g^k): g2^2 = g1^2 with g1 of order 4
    assert _smith_invariants([[4, 0], [-2, 2]]) == (2, 4)
    assert _smith_invariants([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (30,)
    assert _smith_invariants([[2, 0, 0], [0, 2, 0], [0, -1, 4]]) == (2, 8)
    with pytest.raises(ArithmeticInvariantError):
        _smith_invariants([[2, 0], [4, 0]])


def test_smith_invariants_match_minors():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if _determinant(m) == 0:
            continue
        assert _smith_invariants(m) == invariants_by_minors(m), m
        checked += 1


def test_reduce_indefinite_raises_when_stuck(monkeypatch):
    monkeypatch.setattr(quadratic_classgroup, "_is_reduced_indefinite", lambda form, d, sq: False)
    with pytest.raises(ArithmeticInvariantError):
        _reduce_indefinite((1, 1, -1), 5, 2)


def test_indefinite_cycle_structure_60():
    G = class_group(60)
    # eight reduced forms, all with b = 6, in four two-element cycles
    assert G.narrow_class_number == 4
    assert G.h == 2
    assert G.elementary_divisors == (2,)


def test_wide_classes_match_template_route():
    # the wide class of a rho-cycle, found by composing it with the norm -1
    # template (-1, d mod 2, (d - (d mod 2)^2)/4) and keeping the lesser
    # narrow representative, against the partner-cycle construction
    for d in enumerate_fundamental_discriminants(3000):
        if d < 0:
            continue
        G = class_group(d)
        sq = math.isqrt(d)
        narrow = {}
        for f in reduced_forms(d):
            if f not in narrow:
                cyc = _cycle(f, d, sq)
                narrow.update(dict.fromkeys(cyc, min(cyc)))

        def narrow_class(form):
            return narrow[_reduce_indefinite(form, d, sq)]

        def positive(f):
            return f if f[0] > 0 else _rho(f, d, sq)

        b0 = d % 2
        neg = narrow_class((-1, b0, (d - b0 * b0) // 4))
        one = narrow_class((1, b0, (b0 * b0 - d) // 4))
        assert G._class.keys() == narrow.keys(), d
        for f, canon in narrow.items():
            partner = narrow_class(_compose_raw(positive(canon), positive(neg), d))
            assert G._class[f] == min(canon, partner), (d, f)
        assert G.narrow_class_number == len(set(narrow.values())), d
        assert G.narrow_class_number == (G.h if neg == one else 2 * G.h), d


# ----------------------------------------------------------------------
# prime classes and generation
# ----------------------------------------------------------------------
def test_prime_class_cases():
    info = prime_class(-20, 2)
    assert info.status == "ramified" and info.form == (2, 2, 3)
    assert prime_class(-20, 3).status == "split"
    assert prime_class(-20, 3).form == (2, 2, 3)
    assert prime_class(-20, 7).form == (2, 2, 3)
    assert prime_class(-20, 11) == prime_class(-20, 11).__class__(11, "inert", None)
    assert prime_class(-20, 29).form == (1, 0, 5)  # 29 = 9 + 20 splits principally
    with pytest.raises(ValueError):
        prime_class(-20, 6)


def test_prime_class_matches_scan():
    # the form of the least b in [0, 2p) with b^2 = d (mod 4p), found by a
    # scan of [0, 2p) tabulated once per p: least[p][b^2 mod 4p] = b
    least = {}
    for p in (p for p in range(2, 500) if is_probable_prime(p)):
        least[p] = {}
        for b in range(2 * p):
            least[p].setdefault(b * b % (4 * p), b)
    for d in enumerate_fundamental_discriminants(1000):
        G = class_group(d)
        for p in least:
            b = least[p].get(d % (4 * p))
            if b is None:
                want = PrimeClassInfo(p, "inert", None)
            else:
                status = "ramified" if d % p == 0 else "split"
                want = PrimeClassInfo(p, status, G.class_of((p, b, (b * b - d) // (4 * p))))
            assert prime_class(d, p) == want, (d, p)


def test_prime_class_form_has_right_disc():
    for d in (-23, -47, 229):
        for p in (2, 3, 5, 7, 11, 13):
            info = prime_class(d, p)
            if info.form is not None:
                assert form_disc(info.form) == d


def test_generated_by_primes():
    assert generated_by_primes_up_to(-20, 1) == (False, 1)
    assert generated_by_primes_up_to(-20, 2) == (True, 2)
    assert generated_by_primes_up_to(-47, 1) == (False, 1)
    # 2 splits in disc -47 (-47 is 1 mod 8) and h = 5 is prime
    assert generated_by_primes_up_to(-47, 2) == (True, 5)
    ok, order = generated_by_primes_up_to(-163, 1)
    assert ok and order == 1  # class number one needs no generators


def test_generated_subgroup_order_divides_h():
    for d in (-84, -120, 316):
        G = class_group(d)
        for bound in (1, 2, 3, 5, 7):
            ok, order = generated_by_primes_up_to(d, bound)
            assert G.h % order == 0
            assert ok == (order == G.h)


def test_generated_matches_brute_force_closure():
    for d in enumerate_fundamental_discriminants(1000):
        G = class_group(d)
        for bound in (1, 2, 3, 5, 10, 30):
            gens = [prime_class(d, p).form for p in range(2, bound + 1) if is_probable_prime(p)]
            closure, frontier = {G.identity}, [G.identity]
            while frontier:
                new = {G.compose(f, g) for f in frontier for g in gens if g is not None}
                frontier = list(new - closure)
                closure |= new
            assert generated_by_primes_up_to(d, bound) == (len(closure) == G.h, len(closure))


def test_prime_bound_is_least_generating_prime():
    # B(d) against the least prime bound whose classes' brute-force
    # closure is the whole group
    primes = [p for p in range(2, 200) if is_probable_prime(p)]
    for d in enumerate_fundamental_discriminants(1000):
        G = class_group(d)
        closure, gens, least = {G.identity}, [], 1
        for p in primes:
            if len(closure) == G.h:
                break
            g = prime_class(d, p).form
            if g is None:
                continue
            gens.append(g)
            frontier, size = list(closure), len(closure)
            while frontier:
                new = {G.compose(f, x) for f in frontier for x in gens} - closure
                closure |= new
                frontier = list(new)
            if len(closure) > size:
                least = p
        assert len(closure) == G.h, d
        assert G.prime_bound == least, d
        assert G.prime_growth[-1:] == (((least, G.h),) if G.h > 1 else ()), d
