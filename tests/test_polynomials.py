"""Exact polynomial layer: resultants, Sturm counts, mod-p factorization shapes.

Frozen expectations are classical hand-checkable values: cubic and quartic
discriminants, quadratic-residue splitting of x^2 + a, and the standard
index-divisibility examples at p = 2.
"""

import itertools

import pytest

from genbound.polynomials import (
    dedekind_index_certified,
    discriminant,
    gf_divmod,
    gf_factor_shape,
    gf_gcd,
    gf_mul,
    gf_pow_mod,
    gf_squarefree_decomposition,
    poly_eval,
    poly_mul,
    poly_sub,
    resultant,
    signature,
    sturm_real_roots,
)


# ----------------------------------------------------------------------
# integer layer
# ----------------------------------------------------------------------
def test_discriminants():
    # x^3 + px + q has discriminant -4p^3 - 27q^2
    assert discriminant([-1, -1, 0, 1]) == -23
    assert discriminant([-1, 1, 0, 1]) == -31
    assert discriminant([-1, 2, 0, 1]) == -59
    assert discriminant([-2, -2, 0, 1]) == -76
    # general cubics
    assert discriminant([1, 1, -1, 1]) == -44
    assert discriminant([1, -2, -1, 1]) == 49
    # quadratics: x^2 + a has discriminant -4a
    assert discriminant([1, 0, 1]) == -4
    assert discriminant([5, 0, 1]) == -20
    # x^4 + 1
    assert discriminant([1, 0, 0, 0, 1]) == 256


def test_discriminant_guards():
    with pytest.raises(ValueError):
        discriminant([1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        discriminant([5])
    with pytest.raises(ValueError, match="degree must be at least 1"):
        discriminant([1])


def test_resultant_as_norm():
    # monic f: resultant(f, g) is the product of g over the roots of f
    assert resultant([-2, 0, 1], [-3, 1]) == 7  # (sqrt2-3)(-sqrt2-3)
    assert resultant([1, 0, 1], [0, 1]) == 1  # i * (-i)
    assert resultant([1, 0, 1], [1, 1]) == 2  # (1+i)(1-i)
    # degenerate degrees
    assert resultant([3], [-2, 0, 1]) == 9
    assert resultant([], [1, 1]) == 0


def test_resultant_multiplicative():
    f = [-1, -1, 0, 1]
    g1 = [1, 1]
    g2 = [-2, 0, 1]
    assert resultant(f, poly_mul(g1, g2)) == resultant(f, g1) * resultant(f, g2)


def test_sturm_counts():
    assert sturm_real_roots([-1, -1, 0, 1]) == 1
    assert sturm_real_roots([1, -2, -1, 1]) == 3
    assert sturm_real_roots([1, 0, 1]) == 0
    assert sturm_real_roots([-5, 0, 1]) == 2
    assert sturm_real_roots([1, 0, 0, 0, 1]) == 0
    assert sturm_real_roots([1, 0, -10, 0, 1]) == 4  # (x^2-5)^2 - 24, all real
    assert sturm_real_roots([-2, 1]) == 1
    with pytest.raises(ValueError, match="not squarefree"):
        sturm_real_roots([0, 0, 1])  # x^2


def test_signature():
    assert signature([-1, -1, 0, 1]) == (1, 1)
    assert signature([1, -2, -1, 1]) == (3, 0)
    assert signature([1, 0, 1]) == (0, 1)
    assert signature([1, 0, 0, 0, 1]) == (0, 2)


# ----------------------------------------------------------------------
# GF(p) layer
# ----------------------------------------------------------------------
def test_gf_divmod_roundtrip():
    p = 7
    a = [3, 0, 5, 1, 6]
    b = [2, 4, 1]
    q, r = gf_divmod(a, b, p)
    recon = [c % p for c in poly_sub(poly_mul(q, b), [-c for c in r])]
    # q*b + r == a mod p
    back = poly_mul(q, b)
    total = [(x + y) % p for x, y in zip(back + [0] * 5, r + [0] * 9)][: len(a)]
    assert total == [c % p for c in a]
    with pytest.raises(ZeroDivisionError):
        gf_divmod([1, 1], [], 5)


def test_gf_gcd_and_powmod():
    p = 5
    # gcd((x+1)(x+2), (x+1)(x+3)) = x+1
    a = gf_mul([1, 1], [2, 1], p)
    b = gf_mul([1, 1], [3, 1], p)
    assert gf_gcd(a, b, p) == [1, 1]
    # Fermat: x^p = x mod (x^2 - x) has remainder x for p = 5
    assert gf_pow_mod([0, 1], 5, [0, -1, 1], 5) == [0, 1]


def test_factor_shapes_quadratic():
    # x^2 + 1: split at p = 1 mod 4, inert at p = 3 mod 4, ramified at 2
    assert gf_factor_shape([1, 0, 1], 5) == [(1, 1), (1, 1)]
    assert gf_factor_shape([1, 0, 1], 13) == [(1, 1), (1, 1)]
    assert gf_factor_shape([1, 0, 1], 3) == [(1, 2)]
    assert gf_factor_shape([1, 0, 1], 2) == [(2, 1)]
    # x^2 + 5 at 3 (residue) and 11 (non-residue)
    assert gf_factor_shape([5, 0, 1], 3) == [(1, 1), (1, 1)]
    assert gf_factor_shape([5, 0, 1], 11) == [(1, 2)]


def test_factor_shapes_higher():
    # x^4 + 1 is (x+1)^4 at 2, two quadratics at 3, four linears at 17
    assert gf_factor_shape([1, 0, 0, 0, 1], 2) == [(4, 1)]
    assert gf_factor_shape([1, 0, 0, 0, 1], 3) == [(1, 2), (1, 2)]
    assert gf_factor_shape([1, 0, 0, 0, 1], 17) == [(1, 1)] * 4
    # x^3 - x - 1 at its ramified prime 23: one simple linear, one doubled
    assert gf_factor_shape([-1, -1, 0, 1], 23) == [(1, 1), (2, 1)]


def test_factor_shape_degree_sum():
    # sum of e*deg always equals deg f
    polys = [[-1, -1, 0, 1], [1, 0, 0, 0, 1], [5, 0, 1], [1, 1, -1, 1]]
    for f in polys:
        for p in (2, 3, 5, 7, 11, 13):
            shape = gf_factor_shape(f, p)
            assert sum(e * d for e, d in shape) == len(f) - 1


def test_squarefree_decomposition_pth_root_path():
    # derivative vanishes identically mod 2; decomposition must still find (x+1)^4
    assert gf_squarefree_decomposition([1, 0, 0, 0, 1], 2) == [([1, 1], 4)]
    # (x(x+1))^2 * (x+2) mod 3
    f = poly_mul(poly_mul([0, 1, 1], [0, 1, 1]), [2, 1])
    dec = gf_squarefree_decomposition(f, 3)
    assert dec == [([2, 1], 1), ([0, 1, 1], 2)]


def test_gf_irreducibility():
    # every monic f of degree 1..4 over GF(p): f is reducible exactly when it
    # is the product of two monic polynomials of positive degree
    for p in (2, 3, 5, 7):
        monic = {n: [list(c) + [1] for c in itertools.product(range(p), repeat=n)] for n in range(1, 5)}
        reducible = {
            tuple(gf_mul(g, h, p))
            for m in range(1, 3) for n in range(m, 5 - m)
            for g in monic[m] for h in monic[n]
        }
        for n, fs in monic.items():
            for f in fs:
                assert (gf_factor_shape(f, p) == [(1, n)]) == (tuple(f) not in reducible), (f, p)


def test_dedekind_certification():
    certifying = [
        ([5, 0, 1], 2),
        ([-2, -2, 0, 1], 2),  # Eisenstein at 2
        ([1, -2, -1, 1], 7),  # (x + 2)^3 mod 7
        ([1, 1, -1, 1], 2),  # (x + 1)^3 mod 2
        ([1, 0, 0, 0, 1], 2),
    ]
    for f, p in certifying:
        assert dedekind_index_certified(f, p)
    # classical index-2 failures
    assert not dedekind_index_certified([3, 0, 1], 2)
    assert not dedekind_index_certified([-5, 0, 1], 2)
    with pytest.raises(ValueError, match="monic"):
        dedekind_index_certified([1, 2], 3)


def test_poly_eval():
    assert poly_eval([-1, -1, 0, 1], 2) == 5
    assert poly_eval([1, 0, 1], 0) == 1
