"""Number-field layer: parsing, certification, splitting, norm indexes.

Splitting shapes and the norms and weights of the prime-ideal powers are
frozen against hand-worked factorizations (quadratic residues, Eisenstein
ramification). The field's two NormIndexes must equal, bit for bit, the
indexes built from the direct enumeration of ideal_stream, which reads a
quadratic field's splitting from the roots of its polynomial modulo p
wherever p cannot divide the index, and weighted sums are cross-checked
against hand sums.
"""

import math
import random

import numpy as np
import pytest

from genbound import number_field, polynomials
from genbound.arith import factorize, is_probable_prime
from genbound.criteria_engine import minimal_T_exact
from genbound.errors import (
    IrreducibilityError,
    PreconditionError,
    SplittingUnavailableError,
    UnknownDiscriminantError,
    UnsupportedRepresentationError,
)
from genbound.number_field import (
    NumberField,
    load_cubic_fixtures,
    parse_poly,
)
from genbound.polynomials import dedekind_index_certified, gf_factor_shape, signature
from genbound.quadratic_classgroup import enumerate_fundamental_discriminants
from genbound.rational_sieve import NormIndex

from ideal_stream import ideal_powers

LOG2 = math.log(2)
LOG3 = math.log(3)
LOG5 = math.log(5)
LOG7 = math.log(7)


# ----------------------------------------------------------------------
# parsing and construction
# ----------------------------------------------------------------------
def test_parse_poly():
    assert parse_poly("5,0,1") == [5, 0, 1]
    assert parse_poly("5,0") == [5, 0, 1]  # implied monic leading term
    assert parse_poly(" -1, -1, 0, 1 ") == [-1, -1, 0, 1]
    assert parse_poly("−1,−1,0,1") == [-1, -1, 0, 1]  # unicode minus


def test_parse_poly_errors():
    with pytest.raises(UnsupportedRepresentationError):
        parse_poly("")
    with pytest.raises(UnsupportedRepresentationError):
        parse_poly("1,x,1")


def test_monic_and_degree_guards():
    with pytest.raises(UnsupportedRepresentationError):
        NumberField([1, 0, 2])
    with pytest.raises(UnsupportedRepresentationError):
        NumberField([3, 1])  # degree 1
    # int() would truncate 0.9 and 1.5 and read "7", giving another field
    for coeffs in ([1, 0.9, 1], [1.5, 0, 1], ["7", 0, 1]):
        with pytest.raises(UnsupportedRepresentationError, match="not an integer"):
            NumberField(coeffs)
    K = NumberField(np.array([1, 0, 1], dtype=np.int64))
    assert K.coeffs == (1, 0, 1) and all(type(c) is int for c in K.coeffs)
    assert K.field_disc == -4


def test_irreducibility_certificates():
    # a quadratic is decided by whether b^2 - 4c is a square, not by trying
    # the divisors of c
    K = NumberField([-(10**400 + 1), 0, 1])
    assert K.irreducibility_certificate == "no rational root"
    assert not K.has_field_disc
    with pytest.raises(IrreducibilityError, match=f"integer root {10**200}$"):
        NumberField([-(10**400), 0, 1])
    with pytest.raises(IrreducibilityError, match="integer root -2$"):
        NumberField([6, 5, 1])  # (x + 2)(x + 3)
    with pytest.raises(IrreducibilityError, match="integer root 0$"):
        NumberField([0, 3, 1])
    # degree <= 3 with no integer root needs no modular certificate
    assert NumberField([-1, -1, 0, 1]).irreducibility_certificate == "no rational root"
    # a quartic with no integer root is settled by the search for two monic
    # quadratic factors, even where it is irreducible modulo 2, as x^4 - x - 1 is
    assert NumberField([-1, -1, 0, 0, 1]).irreducibility_certificate == (
        "no rational root, no quadratic factorization")
    # x^4 + 1 is reducible modulo every prime, so only that search certifies it
    K = NumberField([1, 0, 0, 0, 1])
    assert "quadratic" in K.irreducibility_certificate
    with pytest.raises(IrreducibilityError):
        NumberField([-4, 0, 1])  # root 2
    with pytest.raises(IrreducibilityError):
        NumberField([4, 0, 0, 0, 1])  # (x^2+2x+2)(x^2-2x+2)
    with pytest.raises(IrreducibilityError):
        # (x^2+1)(x^3-x-1): no certificate possible at degree 5
        NumberField([-1, -1, -1, 0, 0, 1])


def test_signatures():
    assert (NumberField([-1, -1, 0, 1]).r1, NumberField([-1, -1, 0, 1]).r2) == (1, 1)
    assert (NumberField([1, -2, -1, 1]).r1, NumberField([1, -2, -1, 1]).r2) == (3, 0)
    assert (NumberField([1, 0, 1]).r1, NumberField([1, 0, 1]).r2) == (0, 1)


# x^2 - 8, x^2 - 72 and x^2 + 45 are non-maximal models (index 2, 6 and 3)
QUADRATIC_MODELS = [[-8, 0, 1], [-72, 0, 1], [7, 3, 1], [45, 0, 1]]


def test_quadratic_signature_matches_sturm():
    # degree 2 reads (r1, r2) from the sign of the discriminant
    polys = [quadratic_field(d).coeffs for d in enumerate_fundamental_discriminants(3000)]
    for coeffs in polys + QUADRATIC_MODELS:
        K = NumberField(coeffs)
        assert (K.r1, K.r2) == signature(list(coeffs)), coeffs


# ----------------------------------------------------------------------
# discriminants
# ----------------------------------------------------------------------
def test_certified_discriminants():
    assert NumberField([5, 0, 1]).field_disc == -20
    assert NumberField([1, 0, 1]).field_disc == -4
    assert NumberField([1, 0, 0, 0, 1]).field_disc == 256


def test_uncertified_discriminant():
    K = NumberField([-5, 0, 1])  # true field discriminant is 5, index 2
    assert not K.has_field_disc
    with pytest.raises(UnknownDiscriminantError):
        K.field_disc
    with pytest.raises(UnknownDiscriminantError):
        K.minkowski_bound()


def test_supplied_discriminant():
    K = NumberField([-5, 0, 1], disc=5)
    assert K.field_disc == 5
    with pytest.raises(ValueError):
        NumberField([-5, 0, 1], disc=-5)  # wrong sign for signature (2, 0)
    with pytest.raises(ValueError):
        NumberField([-5, 0, 1], disc=10)  # quotient 2 is not a square
    with pytest.raises(ValueError):
        NumberField([5, 0, 1], disc=-5)  # contradicts the certified -20
    with pytest.raises(ValueError, match="must divide the polynomial discriminant"):
        NumberField([-5, 0, 1], disc=3)  # 3 does not divide 20
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        NumberField([-18, 0, 1], disc=18)  # 72 / 18 = 2^2, but 18 = 2 mod 4


@pytest.mark.parametrize("coeffs, disc", [
    ([-5, 0, 1], 20),    # x^2 - 5: 2 would read as ramified, but is inert in Q(sqrt 5)
    ([-45, 0, 1], 45),   # x^2 - 45: 3 would read as ramified in Q(sqrt 5)
    ([-45, 0, 1], 180),
    ([45, 0, 1], -180),  # x^2 + 45: the field discriminant of Q(sqrt -5) is -20
])
def test_supplied_quadratic_discriminant_must_be_fundamental(coeffs, disc):
    # each passes the divisibility, square-quotient, sign and mod-4 checks;
    # a quadratic field reads its splitting from the supplied disc alone
    with pytest.raises(ValueError, match="not fundamental"):
        NumberField(coeffs, disc=disc)
    fundamental = {20: 5, 45: 5, 180: 5, -180: -20}[disc]
    assert NumberField(coeffs, disc=fundamental).field_disc == fundamental


def test_dedekind_holds_where_p_squared_misses_the_discriminant():
    # NumberField._dedekind certifies p at once when p^2 does not divide
    # disc_defining = index^2 * field disc; the full criterion must agree
    rng = random.Random(12)
    polys = [list(fx.coeffs) for fx in load_cubic_fixtures()]
    for degree in (3, 4):
        polys += [[rng.randint(-6, 6) for _ in range(degree)] + [1] for _ in range(150)]
    checked = dividing = 0
    for coeffs in polys:
        disc = polynomials.discriminant(coeffs)
        if disc == 0:
            continue
        try:
            NumberField(coeffs)
        except IrreducibilityError:
            continue
        primes = set(factorize(disc)[0]) | {p for p in range(2, 50) if is_probable_prime(p)}
        for p in sorted(primes):
            if disc % (p * p):
                assert dedekind_index_certified(coeffs, p), (coeffs, p)
                checked += 1
                dividing += disc % p == 0
    assert checked > 3000 and dividing > 300


def test_log_abs_disc():
    assert NumberField([5, 0, 1]).log_abs_disc == pytest.approx(math.log(20), rel=1e-15)


# ----------------------------------------------------------------------
# splitting
# ----------------------------------------------------------------------
def test_split_quadratic_shapes():
    K = NumberField([5, 0, 1])
    assert K.split_prime(2) == [(2, 1)]
    assert K.split_prime(3) == [(1, 1), (1, 1)]
    assert K.split_prime(5) == [(2, 1)]
    assert K.split_prime(7) == [(1, 1), (1, 1)]
    assert K.split_prime(11) == [(1, 2)]


@pytest.mark.parametrize("coeffs", [
    [-1, -1, 1],       # disc 5: 2 inert
    [-4, -1, 1],       # disc 17: 2 split
    [-2, 0, 1],        # disc 8
    [2, -1, 1],        # disc -7: 2 split
    [1, -1, 1],        # disc -3: 2 inert
    [5, 0, 1],         # disc -20
    [2499998, -1, 1],  # disc -9999991
    [45, 0, 1],        # disc -180, index 3 uncertified: no field disc
])
def test_quadratic_split_matches_gf_factoring(coeffs):
    # a quadratic field with a known discriminant reads the splitting from
    # Euler's criterion on it; factoring the polynomial over GF(p) must give the
    # same shape at every p that cannot divide the index, ramified ones
    # included
    K = NumberField(coeffs)
    compared = ramified = 0
    for p in range(2, 2000):
        if is_probable_prime(p) and K.disc_defining % (p * p):
            assert K.split_prime(p) == gf_factor_shape(coeffs, p), p
            compared += 1
            ramified += K.disc_defining % p == 0
    assert compared > 250
    exact = [p for p, e in factorize(K.disc_defining)[0].items() if e == 1 and p < 2000]
    assert ramified == len(exact)


def test_split_via_supplied_disc():
    # index-2 presentation of Q(sqrt 5): splitting at 2 still resolvable
    # through the supplied field discriminant
    K = NumberField([-5, 0, 1], disc=5)
    assert K.split_prime(2) == [(1, 2)]
    assert K.split_prime(5) == [(2, 1)]
    assert K.split_prime(11) == [(1, 1), (1, 1)]
    K_unknown = NumberField([-5, 0, 1])
    with pytest.raises(SplittingUnavailableError):
        K_unknown.split_prime(2)
    with pytest.raises(SplittingUnavailableError):
        NumberField([-5, 0, 1]).norm_indexes(64)


def test_split_cubic_ramified():
    K = NumberField([-1, -1, 0, 1])
    assert K.split_prime(23) == [(1, 1), (2, 1)]
    # ramification exactly at the field discriminant
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        shape = K.split_prime(p)
        ramified = any(e > 1 for e, _ in shape)
        assert ramified == (23 % p == 0)
        assert sum(e * f for e, f in shape) == 3


def test_split_totally_ramified():
    K = NumberField([-2, -2, 0, 1])  # Eisenstein at 2
    assert K.split_prime(2) == [(3, 1)]


def test_split_rejects_composite():
    K = NumberField([5, 0, 1])
    K.norm_indexes(3100)  # the stream's memo holds every prime to 3100
    for n in (0, 1, 6):
        with pytest.raises(ValueError):
            K.split_prime(n)


def _refuse(*args, **kwargs):
    raise AssertionError("quadratic fields need no polynomial arithmetic here")


@pytest.mark.parametrize("d", [-100_003, 99_989])
def test_quadratic_fields_need_no_gf_arithmetic(monkeypatch, d):
    for name in ("gf_factor_shape", "gf_distinct_degree", "dedekind_index_certified"):
        monkeypatch.setattr(number_field, name, _refuse)
        monkeypatch.setattr(polynomials, name, _refuse)
    monkeypatch.setattr(polynomials, "sturm_real_roots", _refuse)
    K = quadratic_field(d)
    assert (K.r1, K.r2) == ((2, 0) if d > 0 else (0, 1))
    assert minimal_T_exact(K).evaluation.passed


# ----------------------------------------------------------------------
# norm indexes
# ----------------------------------------------------------------------
def up_to(index, x):
    """Norms and weights of an index's entries of norm <= x."""
    k = index.rank(x)
    return index.norms[:k].tolist(), np.diff(index._w[: k + 1]).tolist()


def test_stream_frozen_small():
    primes, powers = NumberField([5, 0, 1]).norm_indexes(9)
    norms, weights = up_to(powers, 9)
    assert norms == [2, 3, 3, 4, 5, 7, 7, 8, 9, 9]
    expected = [LOG2, LOG3, LOG3, LOG2, LOG5, LOG7, LOG7, LOG2, LOG3, LOG3]
    assert weights == pytest.approx(expected, rel=1e-13)
    # the prime ideals are the first powers: 2, the two above 3, 5 and the two above 7
    norms, weights = up_to(primes, 9)
    assert norms == [2, 3, 3, 5, 7, 7]
    assert weights == pytest.approx([LOG2, LOG3, LOG3, LOG5, LOG7, LOG7], rel=1e-13)


def test_stream_gaussian():
    primes, powers = NumberField([1, 0, 1]).norm_indexes(9)
    norms, weights = up_to(powers, 5)
    assert norms == [2, 4, 5, 5]
    assert weights == pytest.approx([LOG2, LOG2, LOG5, LOG5], rel=1e-13)
    # inert 3 enters at its square norm, once, with the doubled weight
    norms, weights = up_to(primes, 9)
    assert norms == [2, 5, 5, 9]
    assert weights[-1] == pytest.approx(2 * LOG3, rel=1e-13)
    assert up_to(powers, 9)[0] == [2, 4, 5, 5, 8, 9]


def test_stream_growth_consistent():
    K = NumberField([5, 0, 1])
    small = K.norm_indexes(9)  # built to 64
    big = K.norm_indexes(200)
    for old, new in zip(small, big):
        k = old.norms.size
        assert new.rank(64) == k and new.norms.max() <= 200
        assert np.array_equal(new.norms[:k], old.norms)
        assert np.array_equal(new._w[: k + 1], old._w)
    assert big == K.norm_indexes(150)  # complete to 200 already, not rebuilt


def test_stream_below_two():
    K = NumberField([5, 0, 1])
    assert [index.rank(1.5) for index in K.norm_indexes(1.5)] == [0, 0]
    assert K.short_ideal_sum(1.5) == 0.0


def test_stream_bound_must_be_below_infinity():
    K = NumberField([5, 0, 1])
    for x in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="below infinity"):
            K.norm_indexes(x)


def reference_indexes(field, x):
    """The prime and power indexes built from the direct enumeration."""
    rows = ideal_powers(field, x)
    first = [r for r in rows if r[3] == 1]
    return tuple(NormIndex([r[0] for r in part], [r[4] for r in part]) for part in (first, rows))


def quadratic_field(d):
    return NumberField([(1 - d) // 4, -1, 1] if d % 4 == 1 else [-(d // 4), 0, 1])


def test_norm_indexes_match_reference():
    # fields are made one at a time, so that only one holds its indexes
    polys = [quadratic_field(d).coeffs for d in enumerate_fundamental_discriminants(3000)]
    polys += [fx.coeffs for fx in load_cubic_fixtures()]
    assert len(polys) == 1826
    for coeffs in polys:
        K = NumberField(coeffs)
        # 64 is the first build; 3100 regrows past twice that
        for x in (64, 3100):
            for got, want in zip(K.norm_indexes(x), reference_indexes(K, x)):
                assert np.array_equal(got.norms, want.norms), (K, x)
                for name in ("_w", "_wl", "_wi"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (K, x, name)


def test_weighted_tail_sum():
    K = NumberField([1, 0, 1])
    ws = K.prime_ideal_weighted_sum(3, 10)
    want = 2 * LOG5 * math.log(10 / 5) + 2 * LOG3 * math.log(10 / 9)
    assert ws.value == pytest.approx(want, rel=1e-13)
    assert ws.term_count == 3
    with pytest.raises(ValueError):
        K.prime_ideal_weighted_sum(10, 10)


def test_short_ideal_sum():
    K = NumberField([1, 0, 1])
    val = K.short_ideal_sum(5)
    want = LOG2 * (1 / 5 - 1 / 2) + LOG2 * (1 / 5 - 1 / 4)
    assert val == pytest.approx(want, rel=1e-13)
    assert val <= 0.0
    for A in (2, 10, 100, 1000):
        assert K.short_ideal_sum(A) <= 0.0
    assert K.short_ideal_sum(1.5) == 0.0


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
def test_minkowski_bounds():
    expected = {23: 1.357, 31: 1.575, 44: 1.877, 49: 1.556, 59: 2.173, 76: 2.466}
    for fx in load_cubic_fixtures():
        K = NumberField(list(fx.coeffs))
        assert abs(K.field_disc) == fx.abs_disc
        assert K.minkowski_bound() == pytest.approx(expected[fx.abs_disc], abs=1.5e-3)


def test_fixture_file():
    fixtures = load_cubic_fixtures()
    assert len(fixtures) == 6
    assert [f.abs_disc for f in fixtures] == [23, 31, 44, 49, 59, 76]
