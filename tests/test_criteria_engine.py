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
    eval_degree_specialized,
    eval_exact,
    minimal_T_exact,
    minimal_T_generic,
)
from genbound.errors import NoBoundCertifiedError, PreconditionError
from genbound.number_field import NumberField, load_cubic_fixtures
from genbound.quadratic_classgroup import enumerate_fundamental_discriminants
from genbound.rational_sieve import default_table

# a difference of prefix sums errs by a few unit roundoffs of the prefix
# sums it cancels; this bound, relative to their size, leaves room for
# hundreds of terms
PREFIX_REL_TOL = 1e-12


def quadratic_field(d):
    return NumberField([(1 - d) // 4, -1, 1] if d % 4 == 1 else [-(d // 4), 0, 1])


class FsumSums:
    """Field sums by math.fsum over the ideal stream up to a fixed norm."""

    def __init__(self, field, x):
        stream = field.ideal_lambda_stream(x)
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


def reference_minimal_T(field):
    """(T, c) of the scalar scan: T ascending, then c ascending, first pass."""
    cap = math.floor(4.0 * field.log_abs_disc ** 2)
    sums = FsumSums(field, max(_EXACT_SCALES) * cap)
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


def test_solver_matches_reference_small_quadratics():
    assert len(SMALL_DISCS) > 150
    for d in SMALL_DISCS + BLOCK_EDGE_DISCS:
        K = quadratic_field(d)
        report = minimal_T_exact(K)
        assert (report.T_bound, report.c_used) == reference_minimal_T(K), d


def test_solver_matches_reference_cubics():
    for fx in load_cubic_fixtures():
        K = NumberField(fx.coeffs)
        report = minimal_T_exact(K)
        assert (report.T_bound, report.c_used) == reference_minimal_T(K), fx.coeffs


def test_solver_anchor():
    report = minimal_T_exact(quadratic_field(-9999991))
    assert report.T_bound == 211.0
    assert report.c_used == pytest.approx(1.5950685946, abs=1e-10)
    assert type(report.T_bound) is float and type(report.c_used) is float
    assert report.evaluation.passed
    # the reported evaluation is eval_exact's at the returned point
    again = eval_exact(quadratic_field(-9999991), TestConfig(211.0, report.c_used))
    assert again == report.evaluation


def test_solver_ceiling_too_low():
    K = quadratic_field(-9999991)
    with pytest.raises(NoBoundCertifiedError):
        minimal_T_exact(K, t_ceiling=210.5)
    with pytest.raises(NoBoundCertifiedError):
        minimal_T_exact(K, t_ceiling=1.5)


def test_empty_window_term_is_zero():
    ev = eval_exact(quadratic_field(-23), TestConfig(10.0, 1.0))
    assert isinstance(ev, TestEvaluation)
    assert dict(ev.rhs_terms)["window_primes"] == 0.0


@pytest.mark.parametrize("coeffs", [[2499998, -1, 1], [-1, -1, 0, 1]])
def test_prefix_sums_match_fsum(coeffs):
    K = NumberField(coeffs)
    sums = FsumSums(K, 8192)
    rng = random.Random(3)
    for _ in range(200):
        T = rng.uniform(1.0, 2000.0)
        cT = T * rng.uniform(1.0 + 1e-6, 4.0)
        psi = sums.psi(cT)
        got = K.prime_ideal_weighted_sum(T, cT).value
        assert abs(got - sums.window(T, cT)) <= PREFIX_REL_TOL * math.log(cT) * psi
        # W(A)/A and WI(A) are both at most psi(A)
        assert abs(K.short_ideal_sum(cT) - sums.short(cT)) <= PREFIX_REL_TOL * psi
        assert K.field_chebyshev_psi(cT) == pytest.approx(psi, rel=PREFIX_REL_TOL)


def test_sieve_prefix_sums_match_fsum():
    table = default_table()
    table.chebyshev_psi(80_000)
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


def test_array_queries_match_scalar_queries():
    primes, powers = quadratic_field(-9999991).norm_indexes(4000)
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


# ----------------------------------------------------------------------
# degree-specialized criterion
# ----------------------------------------------------------------------
# least S = sqrt(cT) each degree's test accepts: sqrt(c 73.2), and S >= 9
# for degree 2 so that the ideal of norm 9 lies inside the window
SPECIALIZED_FLOOR = {2: 9.074690077352505, 3: 8.905054744357274, 4: 8.819013550278738}

# margins of the degree test, frozen from a second, independent
# implementation of its inequality
SPECIALIZED_MARGINS = {
    2: {10.0: 2.860745138483037, 30.0: 3.235428459060645, 100.0: 1.4220742478665498,
        1000.0: 3.479291443764925, 1e4: 94.58235419313468},
    3: {10.0: 5.543490846751158, 30.0: 4.858366125689049, 100.0: 2.521190442351848,
        1000.0: 0.9980795566067409, 1e4: 57.11443118166416},
    4: {10.0: 8.358867605079674, 30.0: 8.023027332986809, 100.0: 5.681517436211314,
        1000.0: 2.4646577246236863, 1e4: 41.43130340422985},
}


@pytest.mark.parametrize("degree", sorted(SPECIALIZED_MARGINS))
def test_specialized_margin_frozen(degree):
    for s, margin in SPECIALIZED_MARGINS[degree].items():
        assert eval_degree_specialized(degree, s).margin == pytest.approx(margin, abs=1e-12)


@pytest.mark.parametrize("degree", [2, 3])
def test_specialized_passes_above_floor(degree):
    for s in np.geomspace(SPECIALIZED_FLOOR[degree], 1e4, 200).tolist():
        assert eval_degree_specialized(degree, s).passed, s


@pytest.mark.parametrize("degree", sorted(SPECIALIZED_FLOOR))
def test_specialized_below_floor(degree):
    s_floor = SPECIALIZED_FLOOR[degree]
    assert eval_degree_specialized(degree, s_floor).criterion_id == f"degree-{degree}"
    with pytest.raises(PreconditionError):
        eval_degree_specialized(degree, s_floor - 1e-6)
