"""Sieve table, NormIndex sums over the rational prime powers, and the
premises of the rational majorant.

Oracles here are deliberately naive: trial-division primes and prime
powers (ideal_stream), direct enumeration of weighted sums, and an exact
piecewise integral for the partial-summation identity. The sieve's primes
must agree with trial division, and a table grown in many steps with one
sieved in a single step. A NormIndex over the prime powers must agree with
the direct sums. The premise tests check, over the prime powers, what the
generic criterion's closed-form majorant rests on: the square-root bound
for psi from 73.2 on, and the majorant's domination of the weighted sum.
"""

import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest

from genbound import rational_sieve
from genbound.criteria_engine import (
    SCHOENFELD_FLOOR,
    FieldShape,
    TestConfig,
    _majorant_coefficients,
    eval_generic,
)
from genbound.errors import PreconditionError, SieveCapacityError
from genbound.rational_sieve import MAX_LIMIT, NormIndex, SieveTable, default_table

import ideal_stream
from ideal_stream import rational_prime_powers

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


@pytest.fixture(scope="module")
def index():
    """NormIndex over the rational prime powers up to 10^5, weights log p."""
    norms, logs = zip(*rational_prime_powers(100_000))
    return NormIndex(norms, logs)


def lambda_of(a):
    """log p if a = p^k, else 0, by trial division."""
    if a < 2:
        return 0.0
    for p in range(2, a + 1):
        if p * p > a:
            return math.log(a)  # a is prime
        if a % p == 0:
            while a % p == 0:
                a //= p
            return math.log(p) if a == 1 else 0.0
    return 0.0


def naive_psi(x):
    return sum(lambda_of(a) for a in range(2, math.floor(x) + 1))


def psi(x):
    """Chebyshev psi from the sieve's primes: log p once per power p^k <= x."""
    terms = []
    for p in default_table().primes_up_to(x).tolist():
        q = p
        while q <= x:
            terms.append(math.log(p))
            q *= p
    return math.fsum(terms)


def closed_form_majorant(T, c, n):
    """n (c-1-log c) T + n (c-1)/(4 pi) sqrt(T) log^2(cT)."""
    return n * (c - 1 - math.log(c)) * T + n * (c - 1) / (4 * math.pi) * math.sqrt(T) * math.log(c * T) ** 2


# ----------------------------------------------------------------------
# primes and prime powers
# ----------------------------------------------------------------------
def test_primes_small():
    t = SieveTable()
    assert t.primes_up_to(100).tolist() == PRIMES_BELOW_100
    assert t.primes_up_to(1.5).tolist() == []
    assert t.primes_up_to(100_000).tolist() == list(ideal_stream.primes_up_to(100_000))


def test_prime_power_arrays(index):
    norms = index.norms
    assert np.all(np.diff(norms) > 0)
    weights = np.diff(index._w)
    for q, p in [(4, 2), (8, 2), (16, 2), (9, 3), (27, 3), (25, 5), (121, 11)]:
        i = np.searchsorted(norms, q)
        assert norms[i] == q
        assert weights[i] == pytest.approx(math.log(p), rel=1e-12)
    # 6 and 12 are not prime powers
    for a in (6, 12, 100):
        i = np.searchsorted(norms, a)
        assert norms[i] != a
    assert rational_prime_powers(200) == [
        (a, lambda_of(a)) for a in range(2, 201) if lambda_of(a) > 0]


def test_limit_validation():
    t = SieveTable()
    t.primes_up_to(1000)
    limit = t.limit
    for x in (MAX_LIMIT + 1, 1e12):
        with pytest.raises(SieveCapacityError):
            t.primes_up_to(x)
    assert t.limit == limit
    # the table grows past its old fixed limit of 300 000: pi(400 000) = 33 860
    assert t.primes_up_to(400_000).size == 33_860
    assert t.limit == 400_000


# ----------------------------------------------------------------------
# growth on demand
# ----------------------------------------------------------------------
def test_growth_in_steps_matches_single_build():
    whole = SieveTable()
    whole.primes_up_to(300_000)
    assert whole.limit == 300_000
    grown = SieveTable()
    limits = []
    for x in (64, 65, 200, 70_000, 140_000, 300_000):
        grown.primes_up_to(x)
        limits.append(grown.limit)
        for y in (10, 64, x / 3, x):
            assert np.array_equal(grown.primes_up_to(y), whole.primes_up_to(y))
    # each query re-sieves to the larger of itself and twice the limit
    assert limits == [64, 128, 256, 70_000, 140_000, 300_000]
    assert np.array_equal(grown.primes, whole.primes)


def test_concurrent_growth():
    reference = SieveTable()
    points = [1000 * k + 17 for k in range(1, 200, 7)]
    want = {x: reference.primes_up_to(x).tolist() for x in points}
    orders = [points, points[::-1]] + [random.Random(k).sample(points, len(points)) for k in (1, 2)]
    shared = SieveTable()
    start = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def run(k):
        start.wait()
        results[k] = {x: shared.primes_up_to(x).tolist() for x in orders[k]}

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * len(orders)
    # a build that finished late must not replace a larger one
    assert shared.limit >= max(points)


def test_waiting_query_reuses_larger_build(monkeypatch):
    # a query that waited on the lock while a larger build ran must take
    # that build, not sieve again to a smaller limit
    builds = []
    building, release = threading.Event(), threading.Event()

    def slow_sieve_to(limit):
        builds.append(limit)
        building.set()
        release.wait(timeout=10)
        return sieve_to(limit)

    sieve_to = rational_sieve._sieve_to
    table = SieveTable()
    monkeypatch.setattr(rational_sieve, "_sieve_to", slow_sieve_to)
    big = threading.Thread(target=table.primes_up_to, args=(10_000,))
    small = threading.Thread(target=table.primes_up_to, args=(5_000,))
    big.start()
    assert building.wait(timeout=10)
    small.start()
    small.join(timeout=0.05)  # let it reach the lock
    release.set()
    for th in (big, small):
        th.join(timeout=10)
        assert not th.is_alive()
    assert builds == [10_000]
    assert table.limit == 10_000


def test_default_table_is_shared():
    assert default_table() is default_table()
    assert default_table().primes_up_to(30).tolist() == PRIMES_BELOW_100[:10]


# ----------------------------------------------------------------------
# chebyshev psi from the sieve's primes
# ----------------------------------------------------------------------
def test_psi_at_ten():
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert psi(10) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(7.8320146, abs=1e-6)


def test_psi_against_naive():
    for x in [1, 2, 2.5, 3, 10, 29, 30, 97, 100, 243]:
        assert psi(x) == pytest.approx(naive_psi(x), rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# NormIndex window sums over the prime powers
# ----------------------------------------------------------------------
def test_weighted_sum_ten_twenty(index):
    # contributions at 11, 13, 16 = 2^4, 17, 19
    expected = sum(
        lam * math.log(20 / a)
        for a, lam in [
            (11, math.log(11)),
            (13, math.log(13)),
            (16, math.log(2)),
            (17, math.log(17)),
            (19, math.log(19)),
        ]
    )
    value = index.window_sum(10, 20)
    assert value == pytest.approx(expected, rel=1e-13)
    assert index.rank(20) - index.rank(10) == 5
    assert value == pytest.approx(3.3046, abs=1e-4)


def test_weighted_sum_against_naive(index):
    for T, cT in [(2, 10), (10, 30), (50, 73.2), (73.2, 100), (100, 350.5)]:
        expected = sum(
            lambda_of(a) * math.log(cT / a)
            for a in range(math.floor(T) + 1, math.floor(cT) + 1)
            if a > T
        )
        assert index.window_sum(T, cT) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_rank_is_a_sorted_search(index):
    # norms are integers, so the rank table read at floor(x) counts the
    # norms <= x, at integer, half-integer, zero, negative and
    # past-the-end bounds, for scalars and 2-D arrays, and on an empty index
    bounds = np.array([
        [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0],
        [1.5, 2.0, 2.5, 16.0, 16.5, 99_991.0],
        [99_991.5, 1e5, 1e5 + 0.5, 1e6, 1e300, math.inf],
        [-math.inf, -1e300, 7.0, 7.5, 8.0, 8.5],
    ])
    for norms, ix in ((index.norms, index), (np.zeros(0), NormIndex([], []))):
        want = np.searchsorted(norms, bounds, side="right")
        assert np.array_equal(ix.rank(bounds), want)
        for x, w in zip(bounds.ravel().tolist(), want.ravel().tolist()):
            assert ix.rank(x) == w, x
        # a NaN bound counts every norm, as a sorted search places NaN last
        assert ix.rank(math.nan) == np.searchsorted(norms, math.nan, side="right") == norms.size
    with pytest.raises(PreconditionError, match="integers"):
        NormIndex([2.0, 2.5], [1.0, 1.0])


def test_weighted_sum_empty_window(index):
    assert index.rank(25) - index.rank(24) == 1  # 25 = 5^2
    assert index.rank(22) - index.rank(20) == 0
    assert index.window_sum(20, 22) == 0.0


def test_partial_summation_identity(index):
    # sum of Lambda(a) log(cT/a) over (T, cT] equals the exact piecewise
    # integral of (psi(t) - psi(T))/t from T to cT
    for T, cT in [(10, 20), (30, 100), (73.2, 250), (500, 1234.5)]:
        psi_T = psi(T)
        jumps = [a for a in range(math.floor(T) + 1, math.floor(cT) + 1)
                 if lambda_of(a) > 0 and a > T]
        integral = 0.0
        points = [T] + jumps + [cT]
        for left, right in zip(points[:-1], points[1:]):
            integral += (psi(left) - psi_T) * math.log(right / left)
        assert index.window_sum(T, cT) == pytest.approx(integral, rel=1e-10, abs=1e-10)


# ----------------------------------------------------------------------
# majorant
# ----------------------------------------------------------------------
def test_majorant_dominates_rational_sum(index):
    for T in (73.2, 100.0, 500.0, 2000.0, 20000.0):
        for c in (1.05, 1.25, 2.0, 3.0):
            assert index.window_sum(T, c * T) <= closed_form_majorant(T, c, 1)


def library_majorant(T, c, n):
    """The majorant from the library's two coefficients, scaled as the
    generic criterion scales them, times sqrt(T)/2."""
    linear, log_sq = _majorant_coefficients(c, n)
    L = math.log(c * T)
    return 0.5 * math.sqrt(T) * (linear * math.sqrt(T) + log_sq * L * L / (2.0 * math.pi))


def test_majorant_scales_linearly_in_degree():
    one = library_majorant(100.0, 1.5, 1)
    assert library_majorant(100.0, 1.5, 3) == pytest.approx(3 * one, rel=1e-14)
    # the generic criterion's two majorant terms are these library terms
    # (test_criteria_engine); together, per sqrt(T)/2, they are the closed form
    for n in (1, 3, 4):
        for T in (73.2, 100.0, 500.0, 2000.0, 20000.0):
            for c in (1.05, 1.25, 2.0, 3.0):
                assert library_majorant(T, c, n) == pytest.approx(closed_form_majorant(T, c, n), rel=1e-14)


def test_majorant_guards():
    # the majorant vanishes with its window at c = 1, and the generic
    # criterion that uses it refuses T below the floor of the psi bound
    assert _majorant_coefficients(1.0, 4) == (0.0, 0.0)
    shape = FieldShape(4, 0, 50.0)
    with pytest.raises(PreconditionError):
        eval_generic(shape, TestConfig(SCHOENFELD_FLOOR - 0.1, 1.5))
    assert eval_generic(shape, TestConfig(SCHOENFELD_FLOOR, 1.5)).criterion_id == "generic"


# ----------------------------------------------------------------------
# sqrt-accurate psi scan
# ----------------------------------------------------------------------
def test_schoenfeld_scan():
    # psi(u) <= u + sqrt(u) log^2 u / (4 pi) at every prime power u in
    # [73.2, 10^5]: psi jumps there, so the margin is least at those points
    powers = rational_prime_powers(100_000)
    psi_u = itertools.accumulate(w for _, w in powers)
    margins = [(u + math.sqrt(u) * math.log(u) ** 2 / (4 * math.pi) - p, u)
               for (u, _), p in zip(powers, psi_u) if u >= SCHOENFELD_FLOOR]
    assert len(margins) > 9000
    min_margin, argmin = min(margins)
    assert min_margin > 0.0
    assert lambda_of(argmin) > 0.0
    assert min_margin == pytest.approx(
        argmin + math.sqrt(argmin) * math.log(argmin) ** 2 / (4 * math.pi) - naive_psi(argmin), rel=1e-12)
