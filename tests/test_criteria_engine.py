"""Exact criterion and its solver, against a scalar fsum reference.

The reference scans (T, c) in the solver's order, one point at a time, and
takes every field sum by math.fsum over ideal_lambda_stream; the solver
evaluates whole blocks of the grid from prefix sums. Both must pick the
same (T, c), and the prefix sums must match the fsum values on random
windows.
"""

import bisect
import math
import random

import numpy as np
import pytest

from genbound.analytic_kernel import alpha, beta
from genbound.criteria_engine import (
    _EXACT_SCALES,
    FieldShape,
    TestConfig,
    TestEvaluation,
    eval_exact,
    minimal_T_exact,
    minimal_T_generic,
)
from genbound.errors import NoBoundCertifiedError
from genbound.number_field import NumberField, load_cubic_fixtures
from genbound.quadratic_classgroup import enumerate_fundamental_discriminants
from genbound.rational_sieve import SieveTable

# a difference of prefix sums errs by a few unit roundoffs of the prefix
# sums it cancels; this bound, relative to their size, leaves room for
# hundreds of terms
PREFIX_REL_TOL = 1e-12


@pytest.fixture(scope="module")
def table():
    return SieveTable(100_000)


def quadratic_field(d):
    return NumberField([(1 - d) // 4, -1, 1] if d % 4 == 1 else [-(d // 4), 0, 1])


class FsumSums:
    """Field sums by math.fsum over the ideal stream up to a fixed norm."""

    def __init__(self, field, x, table):
        stream = field.ideal_lambda_stream(x, table)
        self.all = [(e.norm, e.weight) for e in stream]
        self.primes = [(e.norm, e.weight) for e in stream if e.power == 1]
        self.all_norms = [n for n, _ in self.all]
        self.prime_norms = [n for n, _ in self.primes]

    def window(self, T, cT):
        lo = bisect.bisect_right(self.prime_norms, T)
        hi = bisect.bisect_right(self.prime_norms, cT)
        return math.fsum(w * (math.log(cT) - math.log(n)) for n, w in self.primes[lo:hi])

    def short(self, A):
        hi = bisect.bisect_right(self.all_norms, A)
        return math.fsum(w * (1.0 / A - 1.0 / n) for n, w in self.all[:hi])

    def psi(self, x):
        return math.fsum(w for _, w in self.all[: bisect.bisect_right(self.all_norms, x)])


def reference_minimal_T(field, table):
    """(T, c) of the scalar scan: T ascending, then c ascending, first pass."""
    cap = math.floor(4.0 * field.log_abs_disc ** 2)
    sums = FsumSums(field, max(_EXACT_SCALES) * cap, table)
    for T in range(2, cap + 1):
        for c in (float(c) for c in _EXACT_SCALES if c < T):
            ct = c * T
            a = math.sqrt(ct)
            lhs = (a - 1.0 - 0.5 * math.log(ct)) ** 2
            rhs = math.fsum((
                2.0 * (a - 1.0) * field.log_abs_disc,
                -field.r1 * a * alpha(ct),
                -field.degree * a * beta(ct),
                8.0 * a * sums.short(a),
                2.0 * sums.window(T, ct),
            ))
            if lhs - rhs > 0.0:
                return float(T), c
    return None


SMALL_DISCS = [d for d in enumerate_fundamental_discriminants(300) if abs(d) >= 5]
# certified at T = 16, the first T of the solver's second block
BLOCK_EDGE_DISCS = [-1111, 1429]


def test_solver_matches_reference_small_quadratics(table):
    assert len(SMALL_DISCS) > 150
    for d in SMALL_DISCS + BLOCK_EDGE_DISCS:
        K = quadratic_field(d)
        report = minimal_T_exact(K, table=table)
        assert (report.T_bound, report.c_used) == reference_minimal_T(K, table), d


def test_solver_matches_reference_cubics(table):
    for fx in load_cubic_fixtures():
        K = NumberField(fx.coeffs)
        report = minimal_T_exact(K, table=table)
        assert (report.T_bound, report.c_used) == reference_minimal_T(K, table), fx.coeffs


def test_solver_anchor(table):
    report = minimal_T_exact(quadratic_field(-9999991), table=table)
    assert report.T_bound == 211.0
    assert report.c_used == pytest.approx(1.5950685946, abs=1e-10)
    assert type(report.T_bound) is float and type(report.c_used) is float
    assert report.evaluation.passed
    # the reported evaluation is eval_exact's at the returned point
    again = eval_exact(quadratic_field(-9999991), TestConfig(211.0, report.c_used), table)
    assert again == report.evaluation


def test_solver_ceiling_too_low(table):
    K = quadratic_field(-9999991)
    with pytest.raises(NoBoundCertifiedError):
        minimal_T_exact(K, t_ceiling=210.5, table=table)
    with pytest.raises(NoBoundCertifiedError):
        minimal_T_exact(K, t_ceiling=1.5, table=table)


def test_empty_window_term_is_zero(table):
    ev = eval_exact(quadratic_field(-23), TestConfig(10.0, 1.0), table)
    assert isinstance(ev, TestEvaluation)
    assert dict(ev.rhs_terms)["window_primes"] == 0.0


@pytest.mark.parametrize("coeffs", [[2499998, -1, 1], [-1, -1, 0, 1]])
def test_prefix_sums_match_fsum(coeffs, table):
    K = NumberField(coeffs)
    sums = FsumSums(K, 8192, table)
    rng = random.Random(3)
    for _ in range(200):
        T = rng.uniform(1.0, 2000.0)
        cT = T * rng.uniform(1.0 + 1e-6, 4.0)
        psi = sums.psi(cT)
        got = K.prime_ideal_weighted_sum(T, cT, table).value
        assert abs(got - sums.window(T, cT)) <= PREFIX_REL_TOL * math.log(cT) * psi
        # W(A)/A and WI(A) are both at most psi(A)
        assert abs(K.short_ideal_sum(cT, table) - sums.short(cT)) <= PREFIX_REL_TOL * psi
        assert K.field_chebyshev_psi(cT, table) == pytest.approx(psi, rel=PREFIX_REL_TOL)


def test_sieve_prefix_sums_match_fsum(table):
    norms = table.pp_norms.tolist()
    logs = table.pp_logs.tolist()
    rng = random.Random(5)
    for _ in range(100):
        T = rng.uniform(1.0, 20_000.0)
        cT = T * rng.uniform(1.0 + 1e-6, 4.0)
        lo, hi = bisect.bisect_right(norms, T), bisect.bisect_right(norms, cT)
        psi = math.fsum(logs[:hi])
        want = math.fsum(w * (math.log(cT) - math.log(n)) for n, w in zip(norms[lo:hi], logs[lo:hi]))
        ws = table.weighted_lambda_sum(T, cT)
        assert ws.term_count == hi - lo
        assert abs(ws.value - want) <= PREFIX_REL_TOL * math.log(cT) * psi
        assert table.chebyshev_psi(cT) == pytest.approx(psi, rel=PREFIX_REL_TOL)


def test_array_queries_match_scalar_queries(table):
    primes, powers = quadratic_field(-9999991).norm_indexes(4000, table)
    T = np.linspace(2.0, 1000.0, 37)[:, None]
    cT = T * np.array([1.0, 1.3, 2.0, 4.0])
    window = primes.window_sum(T, cT)
    short = powers.short_sum(cT)
    for i in range(T.shape[0]):
        for j in range(cT.shape[1]):
            assert window[i, j] == primes.window_sum(T[i, 0], cT[i, j])
            assert short[i, j] == powers.short_sum(cT[i, j])


def test_generic_scale_is_plain_float():
    report = minimal_T_generic(FieldShape(2, 0, 20.0))
    assert type(report.c_used) is float and report.evaluation.passed
