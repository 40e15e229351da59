"""Number-field layer: parsing, certification, splitting, ideal streams.

Splitting shapes and stream contents are frozen against hand-worked
factorizations (quadratic residues, Eisenstein ramification); weighted sums
are cross-checked by direct enumeration over the same splitting data.
"""

import math

import pytest

from genbound.arith import is_probable_prime
from genbound.errors import (
    IrreducibilityError,
    SplittingUnavailableError,
    UnknownDiscriminantError,
    UnsupportedRepresentationError,
)
from genbound.number_field import (
    NumberField,
    load_cubic_fixtures,
    parse_poly,
)
from genbound.polynomials import gf_factor_shape
from genbound.rational_sieve import SieveTable

LOG2 = math.log(2)
LOG3 = math.log(3)
LOG5 = math.log(5)
LOG7 = math.log(7)


@pytest.fixture(scope="module")
def table():
    return SieveTable(100_000)


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


def test_irreducibility_certificates():
    assert "modulo" in NumberField([-1, -1, 0, 1]).irreducibility_certificate
    # x^4 + 1 is reducible modulo every prime; the exhaustive search certifies
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
])
def test_quadratic_split_matches_gf_factoring(coeffs):
    # degree 2 reads the splitting from a Kronecker symbol; factoring the
    # polynomial over GF(p) must give the same shape at every unramified p
    K = NumberField(coeffs)
    compared = 0
    for p in range(2, 2000):
        if is_probable_prime(p) and K.disc_defining % p:
            assert K.split_prime(p) == gf_factor_shape(coeffs, p), p
            compared += 1
    assert compared > 250


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
    with pytest.raises(ValueError):
        NumberField([5, 0, 1]).split_prime(6)


# ----------------------------------------------------------------------
# ideal stream
# ----------------------------------------------------------------------
def test_stream_frozen_small(table):
    K = NumberField([5, 0, 1])
    st = K.ideal_lambda_stream(9, table)
    assert [(e.norm, e.prime, e.residue_degree, e.power) for e in st] == [
        (2, 2, 1, 1), (3, 3, 1, 1), (3, 3, 1, 1), (4, 2, 1, 2), (5, 5, 1, 1),
        (7, 7, 1, 1), (7, 7, 1, 1), (8, 2, 1, 3), (9, 3, 1, 2), (9, 3, 1, 2),
    ]
    weights = [e.weight for e in st]
    expected = [LOG2, LOG3, LOG3, LOG2, LOG5, LOG7, LOG7, LOG2, LOG3, LOG3]
    assert weights == pytest.approx(expected, rel=1e-14)


def test_stream_gaussian(table):
    K = NumberField([1, 0, 1])
    st = K.ideal_lambda_stream(5, table)
    assert [(e.norm, e.weight) for e in st] == pytest.approx(
        [(2, LOG2), (4, LOG2), (5, LOG5), (5, LOG5)]
    )
    # inert prime enters at its square norm with the doubled weight
    st9 = K.ideal_lambda_stream(9, table)
    assert (9, 2, 1) in {(e.norm, e.residue_degree, e.power) for e in st9}
    nine = [e for e in st9 if e.norm == 9 and e.prime == 3]
    assert len(nine) == 1 and nine[0].weight == pytest.approx(2 * LOG3)


def test_stream_growth_consistent(table):
    K = NumberField([5, 0, 1])
    small = K.ideal_lambda_stream(9, table)
    big = K.ideal_lambda_stream(200, table)
    assert big[: len(small)] == small
    assert all(e.norm <= 200 for e in big)


def test_stream_below_two(table):
    assert NumberField([5, 0, 1]).ideal_lambda_stream(1.5, table) == []


def test_weighted_tail_sum(table):
    K = NumberField([1, 0, 1])
    ws = K.prime_ideal_weighted_sum(3, 10, table)
    want = 2 * LOG5 * math.log(10 / 5) + 2 * LOG3 * math.log(10 / 9)
    assert ws.value == pytest.approx(want, rel=1e-13)
    assert ws.term_count == 3
    with pytest.raises(ValueError):
        K.prime_ideal_weighted_sum(10, 10, table)


def test_short_ideal_sum(table):
    K = NumberField([1, 0, 1])
    val = K.short_ideal_sum(5, table)
    want = LOG2 * (1 / 5 - 1 / 2) + LOG2 * (1 / 5 - 1 / 4)
    assert val == pytest.approx(want, rel=1e-13)
    assert val <= 0.0
    for A in (2, 10, 100, 1000):
        assert K.short_ideal_sum(A, table) <= 0.0
    assert K.short_ideal_sum(1.5, table) == 0.0


def test_field_psi(table):
    K = NumberField([1, 0, 1])
    assert K.field_chebyshev_psi(5, table) == pytest.approx(2 * LOG2 + 2 * LOG5, rel=1e-13)
    # field psi is at most n times the rational psi
    assert K.field_chebyshev_psi(1000, table) <= 2 * table.chebyshev_psi(1000) + 1e-9


# ----------------------------------------------------------------------
# geometry and principality
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


def test_principality_witnesses():
    K59 = NumberField([-1, 2, 0, 1])
    w = K59.principality_search(2, 1, 2, 2)
    assert w is not None
    assert abs(w.norm) == 2
    assert sum(c * 1**i for i, c in enumerate(w.coeffs)) % 2 == 0
    K76 = NumberField([-2, -2, 0, 1])
    w2 = K76.principality_search(2, 0, 2, 2)
    assert w2 is not None and abs(w2.norm) == 2
    assert w2.coeffs[0] % 2 == 0  # value at root 0 is the constant term


def test_principality_failure_is_none():
    # norm-3 primes of Q(sqrt -5) are not principal: a^2 + 5b^2 = 3 has no
    # solution, so no witness exists at any height
    K = NumberField([5, 0, 1])
    assert K.principality_search(3, 1, 3, 4) is None


def test_principality_bad_root():
    with pytest.raises(ValueError):
        NumberField([5, 0, 1]).principality_search(3, 0, 3, 2)


def test_element_norm():
    K = NumberField([1, 0, 1])
    assert K.element_norm([1, 1]) == 2  # N(1 + i)
    assert K.element_norm([0, 1]) == 1  # N(i)
    assert K.element_norm([3]) == 9
    assert K.element_norm([]) == 0
