"""Sieve table, psi, weighted prime-power sums, and the sqrt-accurate scan.

Oracles here are deliberately naive: trial-division prime powers, direct
enumeration of weighted sums, and an exact piecewise integral for the
partial-summation identity. The fast table must agree with all of them, and
a table grown in many steps must agree with one sieved in a single step.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest

from genbound import rational_sieve
from genbound.errors import PreconditionError, SieveCapacityError
from genbound.rational_sieve import (
    MAX_LIMIT,
    SCHOENFELD_FLOOR,
    SieveTable,
    default_table,
    weighted_sum_majorant,
)

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


@pytest.fixture(scope="module")
def table():
    return SieveTable()


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


# ----------------------------------------------------------------------
# primes and prime powers
# ----------------------------------------------------------------------
def test_primes_small():
    t = SieveTable()
    assert t.primes_up_to(100).tolist() == PRIMES_BELOW_100
    assert t.primes_up_to(1.5).tolist() == []


def test_prime_power_arrays(table):
    table.chebyshev_psi(200)
    norms = table.pp_norms
    assert np.all(np.diff(norms) > 0)
    for q, p in [(4, 2), (8, 2), (16, 2), (9, 3), (27, 3), (25, 5), (121, 11)]:
        i = np.searchsorted(norms, q)
        assert norms[i] == q
        assert table.pp_logs[i] == pytest.approx(math.log(p), rel=1e-15)
    # 6 and 12 are not prime powers
    for a in (6, 12, 100):
        i = np.searchsorted(norms, a)
        assert norms[i] != a


def test_limit_validation():
    t = SieveTable()
    t.chebyshev_psi(1000)
    limit = t.limit
    for query in (
        lambda: t.primes_up_to(MAX_LIMIT + 1),
        lambda: t.chebyshev_psi(MAX_LIMIT + 1),
        lambda: t.chebyshev_psi(1e12),
        lambda: t.weighted_lambda_sum(10, MAX_LIMIT + 1),
        lambda: t.schoenfeld_check(MAX_LIMIT + 1),
    ):
        with pytest.raises(SieveCapacityError):
            query()
    assert t.limit == limit


# ----------------------------------------------------------------------
# growth on demand
# ----------------------------------------------------------------------
def test_growth_in_steps_matches_single_build():
    whole = SieveTable()
    whole.chebyshev_psi(300_000)
    assert whole.limit == 300_000
    grown = SieveTable()
    windows = [(2, 10), (50, 64), (100, 350.5), (1000, 4000), (20_000, 70_000), (100_000, 300_000)]
    limits = []
    for x in (64, 65, 200, 70_000, 140_000, 300_000):
        grown.chebyshev_psi(x)
        limits.append(grown.limit)
        for y in (10, 64, x / 3, x):
            assert grown.chebyshev_psi(y) == whole.chebyshev_psi(y)
        for T, cT in windows:
            if cT <= x:
                assert grown.weighted_lambda_sum(T, cT) == whole.weighted_lambda_sum(T, cT)
    # each query re-sieves to the larger of itself and twice the limit
    assert limits == [64, 128, 256, 70_000, 140_000, 300_000]
    assert np.array_equal(grown.primes, whole.primes)
    assert np.array_equal(grown.pp_norms, whole.pp_norms)
    assert np.array_equal(grown.pp_logs, whole.pp_logs)
    assert SieveTable().schoenfeld_check(100_000) == whole.schoenfeld_check(100_000)


def test_concurrent_growth():
    reference = SieveTable()
    points = [1000 * k + 17 for k in range(1, 200, 7)]
    want = dict(zip(points, (reference.chebyshev_psi(x) for x in points)))
    orders = [points, points[::-1]] + [random.Random(k).sample(points, len(points)) for k in (1, 2)]
    shared = SieveTable()
    start = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def run(k):
        start.wait()
        results[k] = {x: shared.chebyshev_psi(x) for x in orders[k]}

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
    big = threading.Thread(target=table.chebyshev_psi, args=(10_000,))
    small = threading.Thread(target=table.chebyshev_psi, args=(5_000,))
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
# chebyshev psi
# ----------------------------------------------------------------------
def test_psi_at_ten(table):
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert table.chebyshev_psi(10) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(7.8320146, abs=1e-6)


def test_psi_against_naive(table):
    for x in [1, 2, 2.5, 3, 10, 29, 30, 97, 100, 243]:
        assert table.chebyshev_psi(x) == pytest.approx(naive_psi(x), rel=1e-12, abs=1e-12)


def test_psi_guards(table):
    assert table.chebyshev_psi(0) == 0.0
    with pytest.raises(ValueError):
        table.chebyshev_psi(-1)
    # the table grows past its old fixed limit of 300 000; psi(x) ~ x
    assert table.chebyshev_psi(300_001) == pytest.approx(300_001, rel=0.01)
    assert table.limit >= 300_001
    with pytest.raises(SieveCapacityError):
        table.chebyshev_psi(MAX_LIMIT + 1)


# ----------------------------------------------------------------------
# weighted sums
# ----------------------------------------------------------------------
def test_weighted_sum_ten_twenty(table):
    ws = table.weighted_lambda_sum(10, 20)
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
    assert ws.value == pytest.approx(expected, rel=1e-13)
    assert ws.term_count == 5
    assert ws.value == pytest.approx(3.3046, abs=1e-4)


def test_weighted_sum_against_naive(table):
    for T, cT in [(2, 10), (10, 30), (50, 73.2), (73.2, 100), (100, 350.5)]:
        ws = table.weighted_lambda_sum(T, cT)
        expected = sum(
            lambda_of(a) * math.log(cT / a)
            for a in range(math.floor(T) + 1, math.floor(cT) + 1)
            if a > T
        )
        assert ws.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_weighted_sum_empty_window(table):
    ws = table.weighted_lambda_sum(24, 25)  # no prime powers in (24, 25]? 25 = 5^2
    assert ws.term_count == 1
    ws2 = table.weighted_lambda_sum(20, 22)
    assert ws2.term_count == 0 and ws2.value == 0.0


def test_weighted_sum_guards(table):
    with pytest.raises(PreconditionError):
        table.weighted_lambda_sum(10, 10)
    with pytest.raises(PreconditionError):
        table.weighted_lambda_sum(0.5, 10)
    ws = table.weighted_lambda_sum(10, 400_000)
    # pi(400 000) = 33 860 primes and 174 higher prime powers, less the 7 up to 10
    assert ws.term_count == 33_860 + 174 - 7
    assert table.limit >= 400_000
    with pytest.raises(SieveCapacityError):
        table.weighted_lambda_sum(10, MAX_LIMIT + 1)


def test_partial_summation_identity(table):
    # sum of Lambda(a) log(cT/a) over (T, cT] equals the exact piecewise
    # integral of (psi(t) - psi(T))/t from T to cT
    for T, cT in [(10, 20), (30, 100), (73.2, 250), (500, 1234.5)]:
        ws = table.weighted_lambda_sum(T, cT)
        psi_T = table.chebyshev_psi(T)
        jumps = [a for a in range(math.floor(T) + 1, math.floor(cT) + 1)
                 if lambda_of(a) > 0 and a > T]
        integral = 0.0
        points = [T] + jumps + [cT]
        for left, right in zip(points[:-1], points[1:]):
            integral += (table.chebyshev_psi(left) - psi_T) * math.log(right / left)
        assert ws.value == pytest.approx(integral, rel=1e-10, abs=1e-10)


# ----------------------------------------------------------------------
# majorant
# ----------------------------------------------------------------------
def test_majorant_dominates_rational_sum(table):
    for T in (73.2, 100.0, 500.0, 2000.0, 20000.0):
        for c in (1.05, 1.25, 2.0, 3.0):
            ws = table.weighted_lambda_sum(T, c * T)
            assert ws.value <= weighted_sum_majorant(T, c, 1)


def test_majorant_scales_linearly_in_degree():
    one = weighted_sum_majorant(100.0, 1.5, 1)
    assert weighted_sum_majorant(100.0, 1.5, 3) == pytest.approx(3 * one, rel=1e-14)


def test_majorant_guards():
    with pytest.raises(PreconditionError):
        weighted_sum_majorant(50.0, 1.5, 1)
    with pytest.raises(PreconditionError):
        weighted_sum_majorant(100.0, 0.99, 1)
    assert weighted_sum_majorant(SCHOENFELD_FLOOR, 1.0, 1) == 0.0


# ----------------------------------------------------------------------
# sqrt-accurate psi scan
# ----------------------------------------------------------------------
def test_schoenfeld_scan(table):
    report = table.schoenfeld_check(100_000)
    assert report.min_margin > 0.0
    assert report.scanned > 9000
    assert lambda_of(report.argmin) > 0.0
    u = report.argmin
    margin = u + math.sqrt(u) * math.log(u) ** 2 / (4 * math.pi) - table.chebyshev_psi(u)
    assert report.min_margin == pytest.approx(margin, rel=1e-12)


def test_schoenfeld_empty_scan(table):
    with pytest.raises(PreconditionError):
        table.schoenfeld_check(73)
