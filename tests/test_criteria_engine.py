"""Exact and generic criteria and their solvers, against scalar references.

The exact reference scans (T, c) in the solver's order, one point at a
time, and takes every field sum by math.fsum over the prime-ideal powers
that ideal_stream enumerates prime by prime; the solver evaluates whole
blocks of the grid from prefix sums. Both must pick the same (T, c), and
the prefix sums must match the fsum values on random windows. The generic
reference bisects each scale c on its own with one eval_generic call per
point; the solver searches once for the least T that some scale passes,
deciding each round's points against every scale still in the running on
numpy arrays. Both bracket the same crossing to a relative width of 1e-9, so they must pick
the same c and T within 1e-9 relative, and the solver must report
eval_generic's evaluation at its (T, c). Where the generic criterion,
which bounds the field sums by majorants, passes, the exact one must pass
at the same (T, c). A scalar evaluation and the array element at the
same (T, c) must be the same float, so that margin > 0 decides each point
alike in the solvers and in eval_exact and eval_generic.
"""

import bisect
import math
import random
import warnings

import numpy as np
import pytest

from genbound import criteria_engine
from genbound.analytic_kernel import alpha, beta
from genbound.criteria_engine import (
    _EXACT_SCALES,
    _PARTS,
    FieldShape,
    TestConfig,
    TestEvaluation,
    _candidate_scales,
    _exact_block,
    _exact_terms,
    _generic_floor,
    _generic_terms,
    _majorant_coefficients,
    _margin,
    _scales,
    coefficient_of_S,
    eval_degree_specialized,
    eval_exact,
    eval_generic,
    loglog_disc_threshold,
    minimal_T_exact,
    minimal_T_generic,
    specialized_constants,
)
from genbound.errors import (
    ArithmeticInvariantError,
    NoBoundCertifiedError,
    PreconditionError,
    WindowTooWideError,
)
from genbound.number_field import NumberField, load_cubic_fixtures
from genbound.quadratic_classgroup import enumerate_fundamental_discriminants
from genbound.rational_sieve import NormIndex

from ideal_stream import ideal_powers, rational_prime_powers
from kernel_derivation import window_denominator

# a difference of prefix sums errs by a few unit roundoffs of the prefix
# sums it cancels; this bound, relative to their size, leaves room for
# hundreds of terms
PREFIX_REL_TOL = 1e-12


def quadratic_field(d):
    return NumberField([(1 - d) // 4, -1, 1] if d % 4 == 1 else [-(d // 4), 0, 1])


class FsumSums:
    """Field sums by math.fsum over the prime-ideal powers up to a fixed norm."""

    def __init__(self, field, x):
        rows = ideal_powers(field, x)
        self.all = [(norm, w) for norm, _, _, _, w in rows]
        self.primes = [(norm, w) for norm, _, _, m, w in rows if m == 1]
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
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="t_ceiling must be finite"):
            minimal_T_exact(K, t_ceiling=t)


def test_exact_block_table_is_read_only():
    # every field reads the same cached arrays, so none may be written
    block = _exact_block(1)
    assert _exact_block(1) is block
    for v in (*block.points, block.valid):
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0


def test_exact_reports_do_not_depend_on_the_block_table():
    # a solve reads the same grid from a fresh table as from a warm one,
    # and from a last block cut at the cap as from the whole block
    fields = [quadratic_field(d) for d in BLOCK_EDGE_DISCS + IMPLIED_DISCS]
    warm = [minimal_T_exact(K) for K in fields]
    _exact_block.cache_clear()
    for K, report in zip(fields, warm):
        assert repr(minimal_T_exact(K)) == repr(report)
        _exact_block.cache_clear()
        assert repr(minimal_T_exact(K, t_ceiling=report.T_bound)) == repr(report)


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


def test_sieve_prefix_sums_match_fsum():
    # a NormIndex over the rational prime powers, up to norms 20 times
    # those of a field window, still within the prefix-sum tolerance
    norms, logs = map(list, zip(*rational_prime_powers(80_000)))
    index = NormIndex(norms, logs)
    rng = random.Random(5)
    for _ in range(100):
        T = rng.uniform(1.0, 20_000.0)
        cT = T * rng.uniform(1.0 + 1e-6, 4.0)
        lo, hi = bisect.bisect_right(norms, T), bisect.bisect_right(norms, cT)
        psi = math.fsum(logs[:hi])
        want = math.fsum(w * (math.log(cT) - math.log(n)) for n, w in zip(norms[lo:hi], logs[lo:hi]))
        assert index.rank(cT) - index.rank(T) == hi - lo
        assert abs(index.window_sum(T, cT) - want) <= PREFIX_REL_TOL * math.log(cT) * psi


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


# ----------------------------------------------------------------------
# generic criterion and its bracket-search solver
# ----------------------------------------------------------------------
def reference_minimal_T_generic(shape, floor_mode):
    """(T, c) of the scalar search, one eval_generic call per probed point.

    Per c: the floor, the cap, then a bisection that keeps the lower half
    on a pass; the least T wins, ties to the smaller c.
    """

    def ok(t, c):
        return eval_generic(shape, TestConfig(t, c), floor_mode).passed

    t_cap = 4.0 * shape.log_disc ** 2
    best = None
    for c in _candidate_scales(shape.degree):
        t_lo = _generic_floor(shape.degree, c, floor_mode)
        if t_lo > t_cap:
            continue
        if ok(t_lo, c):
            t = t_lo
        elif not ok(t_cap, c):
            continue
        else:
            lo, hi = t_lo, t_cap
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if ok(mid, c):
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-9 * max(1.0, hi):
                    break
            t = hi
        if best is None or t < best[0]:
            best = (t, c)
    if best is None:
        raise NoBoundCertifiedError("no c passes")
    return best


# the solver and the scalar bisection each end at a passing T within a
# relative 1e-9 above the same crossing
GENERIC_T_REL_TOL = 1e-9


def assert_same_crossing(report, want, shape, floor_mode):
    """report of minimal_T_generic against (T, c) of the scalar search."""
    t, c = want
    assert report.c_used == c, (shape, floor_mode)
    assert abs(report.T_bound - t) <= GENERIC_T_REL_TOL * t, (shape, floor_mode)
    ev = eval_generic(shape, TestConfig(report.T_bound, report.c_used), floor_mode)
    assert ev.passed and report.evaluation == ev, (shape, floor_mode)


def signatures(degrees):
    return [(n, r1) for n in degrees for r1 in range(n % 2, n + 1, 2)]


# log disc per signature: below and above the floor-mode guard 4 x^2 >= 1000,
# and up to e^12.2, beyond every degree's threshold
GENERIC_LOG_DISCS = (5.0, 14.0, 60.0, 900.0, 2.0e5)
# and this many more per signature, log-uniform in [5, e^12.5] as the
# paper-claims benchmark draws them
GENERIC_RANDOM_LOG_DISCS = 3


def generic_solver_shapes(degree):
    """(shape, floor_mode) for every signature of the degree, at the fixed
    and the drawn log discs, in both floor modes."""
    rng = random.Random(degree)
    for n, r1 in signatures([degree]):
        drawn = [math.exp(rng.uniform(math.log(5.0), 12.5)) for _ in range(GENERIC_RANDOM_LOG_DISCS)]
        for x in GENERIC_LOG_DISCS + tuple(drawn):
            for floor_mode in (False, True):
                yield FieldShape(n, r1, x), floor_mode


@pytest.mark.parametrize("degree", range(2, 11))
def test_generic_solver_matches_scalar_search(degree):
    for shape, floor_mode in generic_solver_shapes(degree):
        try:
            want = reference_minimal_T_generic(shape, floor_mode)
        except NoBoundCertifiedError:
            with pytest.raises(NoBoundCertifiedError):
                minimal_T_generic(shape, floor_mode)
            continue
        assert_same_crossing(minimal_T_generic(shape, floor_mode), want, shape, floor_mode)


def test_generic_margin_increases_from_the_floor():
    # the lemma of minimal_T_generic: at a fixed c the margin increases in
    # u = sqrt(T) wherever (c - M1) u > 2 sqrt(c) + 2 M2 L / pi, with
    # L = log(cT) and M1, M2 the majorant coefficients. Over u, the right
    # side decreases once L > 2, so holding at the validity floor suffices.
    # It holds there with a factor of at least 1.7, far beyond rounding
    for n in range(2, 200):
        for c in _candidate_scales(n):
            m1, m2 = _majorant_coefficients(c, n)
            for floor_mode in (False, True):
                T = _generic_floor(n, c, floor_mode)
                L = math.log(c * T)
                assert L > 2.0
                rhs = 2.0 * math.sqrt(c) + 2.0 * m2 * L / math.pi
                assert (c - m1) * math.sqrt(T) >= 1.7 * rhs, (n, c, floor_mode)


@pytest.mark.parametrize("degree", range(2, 11))
def test_generic_bound_is_least(degree):
    # checked by eval_generic alone: the search ends within a relative
    # 1e-9 of T_bound, so every scale valid at t = T_bound (1 - 2e-9) fails
    # there, and the margin, increasing in T at each scale (the lemma of
    # minimal_T_generic), fails below t too; so no smaller T passes. With
    # no bound, every scale valid at the cap fails at the cap
    for shape, floor_mode in generic_solver_shapes(degree):
        t_cap = 4.0 * shape.log_disc ** 2
        try:
            t = minimal_T_generic(shape, floor_mode).T_bound * (1.0 - 2e-9)
        except NoBoundCertifiedError:
            t = t_cap
        for c in _candidate_scales(shape.degree):
            if _generic_floor(shape.degree, c, floor_mode) <= t:
                assert not eval_generic(shape, TestConfig(t, c), floor_mode).passed, (shape, floor_mode, c)


def test_generic_solver_anchors():
    # within 1e-9 relative of the anchors of the plain bisection,
    # 3093.9314443198123 and 2824.170784304088
    report = minimal_T_generic(FieldShape(2, 0, 30.0))
    assert (report.T_bound, report.c_used) == (3093.931443999242, 1.03125)
    assert report.criterion_id == "generic" and report.evaluation.passed
    t = minimal_T_generic(FieldShape(2, 2, 30.0)).T_bound
    assert t == 2824.170783993322
    for got, bisected in ((report.T_bound, 3093.9314443198123), (t, 2824.170784304088)):
        assert abs(got - bisected) <= GENERIC_T_REL_TOL * bisected


def test_generic_scale_is_plain_float():
    report = minimal_T_generic(FieldShape(2, 0, 20.0))
    assert type(report.c_used) is float and report.evaluation.passed
    assert type(report.T_bound) is float


def test_generic_solver_first_pass_on_non_monotone_flags(monkeypatch):
    # a step in alpha makes the margin pass on a band of y = cT 30 wide,
    # narrower than the spacing (3600 - 73.2)/16 of a first round's points,
    # so some scale's flags pass below a failure. That breaks the lemma's
    # premise, alpha and beta nondecreasing, on which alone the least-ness
    # of the reported T rests (to be certified in interval arithmetic,
    # ROADMAP item 1). The search then keeps the part ending at the first
    # point some scale passes, so the bound lies inside the band, below the
    # 2824.17 of the unbumped alpha (test_generic_solver_anchors), and still
    # passes
    def bumped(y):
        return alpha(y) + 100.0 * ((1750.0 < y) & (y < 1780.0))

    monkeypatch.setattr(criteria_engine, "alpha", bumped)
    shape = FieldShape(2, 2, 30.0)
    report = minimal_T_generic(shape)
    assert 1750.0 < report.c_used * report.T_bound < 1780.0
    assert report.T_bound < 2824.0
    ev = eval_generic(shape, TestConfig(report.T_bound, report.c_used))
    assert ev.passed and report.evaluation == ev


def test_generic_solver_narrow_bracket_near_the_floor(monkeypatch):
    # the cap lies 1e-8 above the floor 73.2, so the bracket is narrow after
    # one round; alpha drops below y0, so scale i fails at the floor and
    # passes 0.4e-8 above it, the larger scales pass at the floor and the
    # smaller ones nowhere. For i = 32 the search ends at a pass at the
    # floor, with the least of the 32 larger scales; for the largest scale,
    # i = 64, it ends on the bracket of that scale's crossing
    shape = FieldShape(3, 3, math.sqrt(73.2 * (1.0 + 1e-8) / 4.0))
    scales = _candidate_scales(3)
    generic_terms = criteria_engine._generic_terms

    def terms(degree, r1, log_disc, T, s, floor_mode):
        if isinstance(s.c, np.ndarray):
            rows.append(np.shape(T)[0])
        return generic_terms(degree, r1, log_disc, T, s, floor_mode)

    monkeypatch.setattr(criteria_engine, "_generic_terms", terms)
    for i, want_c, path in (
        (32, scales[33], "T in [73.2, 73.2]: 32 of 65 scales pass at hi"),
        (64, scales[64], "T in [73.2000002745, 73.2000003202]: 1 of 65 scales pass at hi"),
    ):
        y0 = scales[i] * 73.2 * (1.0 + 4e-9)
        monkeypatch.setattr(criteria_engine, "alpha", lambda y: alpha(y) - 100.0 * (y <= y0))
        rows = []
        report = minimal_T_generic(shape)
        assert report.c_used == want_c and report.solver_path == (path,)
        # one round of 17 points decides the search: a 16th of the one
        # bracket, 1e-8 relative wide, is narrow
        assert rows == [17]
        assert_same_crossing(report, reference_minimal_T_generic(shape, False), shape, False)


def test_generic_solver_keeps_the_scales_passing_at_the_upper_end(monkeypatch):
    # the first round decides every scale valid below the cap; each later
    # one only the scales that passed at its upper end, the last point of
    # its column, which a scale failing there can no longer win
    calls = []

    def terms(degree, r1, log_disc, T, s, floor_mode):
        if isinstance(s.c, np.ndarray):
            calls.append((float(T[-1, 0]), s.c.tolist()))
        return generic_terms(degree, r1, log_disc, T, s, floor_mode)

    generic_terms = criteria_engine._generic_terms
    monkeypatch.setattr(criteria_engine, "_generic_terms", terms)
    # degree 2 outside floor mode, where the floors max(73.2, 81/c) differ:
    # the cap 4 * 4.4^2 = 77.44 lies below those of the 9 smallest scales,
    # and there the search passes at the least floor in its first round.
    # rounds, and the scales the last of them decides
    for shape, floor_mode, rounds, last in ((FieldShape(2, 0, 30.0), False, 8, 1),
                                            (FieldShape(6, 0, 1000.0), False, 8, 1),
                                            (FieldShape(5, 1, 200.0), True, 8, 1),
                                            (FieldShape(2, 2, 4.4), False, 1, 56)):
        calls.clear()
        t_cap = 4.0 * shape.log_disc ** 2
        minimal_T_generic(shape, floor_mode)
        valid = [c for c in _candidate_scales(shape.degree)
                 if _generic_floor(shape.degree, c, floor_mode) <= t_cap]
        assert calls[0] == (t_cap, valid), shape
        for (_, before), (hi, after) in zip(calls, calls[1:]):
            assert after == [c for c in before
                             if eval_generic(shape, TestConfig(hi, c), floor_mode).passed], shape
        assert (len(calls), len(calls[-1][1])) == (rounds, last), shape


def test_generic_solver_evaluations_per_solve(monkeypatch):
    # the search takes 8 rounds, the first of them deciding the floor and
    # cap tests too: the bracket [floor, 4e6] narrows to 1e-9 of T near
    # 3.9e6 in 16^8 parts
    calls = []

    def terms(degree, r1, log_disc, T, s, floor_mode):
        if isinstance(s.c, np.ndarray):
            calls.append(1)
        return generic_terms(degree, r1, log_disc, T, s, floor_mode)

    generic_terms = criteria_engine._generic_terms
    monkeypatch.setattr(criteria_engine, "_generic_terms", terms)
    shape = FieldShape(6, 0, 1000.0)
    report = minimal_T_generic(shape)
    assert len(calls) <= 8
    assert_same_crossing(report, reference_minimal_T_generic(shape, False), shape, False)


def test_generic_floor_above_cap():
    # cap 4 * 4^2 = 64 lies below the 73.2 floor at every c
    with pytest.raises(NoBoundCertifiedError):
        minimal_T_generic(FieldShape(2, 0, 4.0))


def test_eval_generic_preconditions():
    shape = FieldShape(3, 1, 30.0)
    with pytest.raises(PreconditionError, match="below the validity floor"):
        eval_generic(shape, TestConfig(73.0, 1.1))
    with pytest.raises(PreconditionError, match="below the validity floor"):
        eval_generic(shape, TestConfig(999.0, 1.1), floor_mode=True)
    with pytest.raises(PreconditionError, match="4 log"):
        eval_generic(shape, TestConfig(3600.5, 1.1))
    assert eval_generic(shape, TestConfig(3600.0, 1.1)).criterion_id == "generic"


def test_shape_and_config_preconditions():
    for T, c, match in ((10.0, 0.999, "c must be >= 1"), (1.5, 1.5, "T > c"), (1.0, 2.0, "T > c")):
        with pytest.raises(PreconditionError, match=match):
            TestConfig(T, c)
    assert TestConfig(1.0 + 1e-12, 1.0).c == 1.0
    bad_shapes = (
        (1, 1, 10.0, "degree"), (0, 0, 10.0, "degree"),
        (3, 5, 10.0, "r1"), (3, -1, 10.0, "r1"), (3, 0, 10.0, "r1"), (4, 1, 10.0, "r1"),
        (2, 0, 0.0, "log_disc"), (2, 0, -1.0, "log_disc"), (2, 0, math.nan, "log_disc"),
        # 8 log_disc^2 must be a finite float
        (3, 1, math.inf, "log_disc"), (3, 1, 1e300, "log_disc"), (3, 1, 6e153, "log_disc"),
        # degree and r1 are integers, not floats or strings
        (2.5, 0.5, 10.0, "degree must be an integer"), (3.0, 1, 10.0, "degree must be an integer"),
        ("3", 1, 10.0, "degree must be an integer"), (2, 0.0, 10.0, "r1 must be an integer"),
        (3, "1", 10.0, "r1 must be an integer"),
    )
    for degree, r1, x, match in bad_shapes:
        with pytest.raises(ValueError, match=match):
            FieldShape(degree, r1, x)
    # numpy integers are kept as Python ints
    shape = FieldShape(np.int64(3), np.int32(1), 10.0)
    assert shape == FieldShape(3, 1, 10.0) and type(shape.degree) is type(shape.r1) is int
    # the largest log_disc accepted, and one well inside, solve with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e150, 4.74e153):
            assert minimal_T_generic(FieldShape(3, 1, x)).T_bound <= 4.0 * x * x


def test_generic_terms_on_arrays_match_scalars():
    shape = FieldShape(5, 1, 400.0)
    cs = np.array(_candidate_scales(5))
    T = np.geomspace(100.0, 4.0 * 400.0 ** 2, 7)[:, None]
    for floor_mode in (False, True):
        s = _scales(5, cs, floor_mode)
        lhs, terms = _generic_terms(5, 1, 400.0, np.maximum(T, 1000.0), s, floor_mode)
        for i, j in ((0, 0), (3, 17), (6, cs.size - 1)):
            t, c = max(float(T[i, 0]), 1000.0), float(cs[j])
            ev = eval_generic(shape, TestConfig(t, c), floor_mode)
            assert lhs[i, j] == ev.lhs
            for (name, v), (want_name, want) in zip(terms, ev.rhs_terms):
                assert name == want_name
                assert np.broadcast_to(v, lhs.shape)[i, j] == want


def test_generic_majorant_terms_come_from_the_coefficients():
    # test_rational_sieve checks these terms against the closed form
    for n in (3, 4):
        shape = FieldShape(n, n % 2, 100.0)
        for T in (73.2, 100.0, 500.0, 2000.0, 20000.0):
            for c in (1.05, 1.25, 2.0, 3.0):
                terms = dict(eval_generic(shape, TestConfig(T, c)).rhs_terms)
                linear, log_sq = _majorant_coefficients(c, n)
                L = math.log(c * T)
                want = (linear * math.sqrt(T), log_sq * L * L / (2.0 * math.pi))
                assert (terms["majorant_linear"], terms["majorant_log_sq"]) == want, (n, T, c)


# fundamental discriminants of both signs near 10^5, 10^6 and 10^7, where
# the generic criterion passes on part of [floor, 4 log^2 disc]
IMPLIED_DISCS = [100_001, -100_003, 1_000_001, -1_000_003, 10_000_001, -10_000_003, -9_999_991]


def test_generic_pass_implies_exact_pass():
    # the generic criterion bounds the field's window and short sums by
    # majorants, so wherever it passes the exact one passes at the same (T, c)
    fields = [quadratic_field(d) for d in IMPLIED_DISCS]
    # only the cubic fixture of |disc| 76 has 4 log^2 disc above the floor 73.2
    fields += [NumberField(fx.coeffs) for fx in load_cubic_fixtures()]
    rng = random.Random(11)
    generic_passes = 0
    for K in fields:
        shape = FieldShape.of_field(K)
        t_cap = 4.0 * shape.log_disc ** 2
        for _ in range(100):
            c = rng.choice(_candidate_scales(shape.degree))
            t_lo = _generic_floor(shape.degree, c, False)
            if t_lo > t_cap:
                continue
            cfg = TestConfig(rng.uniform(t_lo, t_cap), c)
            if eval_generic(shape, cfg).passed:
                generic_passes += 1
                assert eval_exact(K, cfg).passed, (K, cfg)
    assert generic_passes > 250


# ----------------------------------------------------------------------
# one float evaluation: scalar against array
# ----------------------------------------------------------------------
IDENTITY_LOG_DISCS = (5.0, 30.0, 900.0, 2.0e5)
# points of the exact grid checked per field, besides its first pass
IDENTITY_EXACT_SAMPLE = 256


def assert_generic_margins_identical():
    # every signature of degree 2..12, both floor modes, and the 17 points
    # that cut [floor, cap] into 16 parts at every valid scale
    for n, r1 in signatures(range(2, 13)):
        for x in IDENTITY_LOG_DISCS:
            shape, t_cap = FieldShape(n, r1, x), 4.0 * x * x
            for floor_mode in (False, True):
                s = _scales(n, np.array(_candidate_scales(n)), floor_mode)
                s = s.take(s.floor <= t_cap)
                T = np.linspace(s.floor, t_cap, _PARTS + 1)
                margin = _margin(*_generic_terms(n, r1, x, T, s, floor_mode))
                for (i, j), m in np.ndenumerate(margin):
                    cfg = TestConfig(float(T[i, j]), float(s.c[j]))
                    assert eval_generic(shape, cfg, floor_mode).margin == m, (shape, floor_mode, cfg)


def exact_grid_margins(field, t_end):
    """The exact grid's margins for T in [2, t_end) against every scale,
    read block by block from _exact_block, as minimal_T_exact reads them."""
    margins, k = [], 0
    while (block := _exact_block(k)).lo < t_end:
        margins.append(_margin(*_exact_terms(field, block.points)))
        k += 1
    return np.concatenate(margins)[: t_end - 2]


def assert_exact_margins_identical():
    # T in [2, 300) against every scale: every valid point for the field of
    # -9 999 991, and for each other field its first pass, the point
    # minimal_T_exact returns, and a seeded sample of the others
    fields = [quadratic_field(d) for d in IMPLIED_DISCS + SMALL_DISCS]
    fields += [NumberField(fx.coeffs) for fx in load_cubic_fixtures()]
    T = np.arange(2.0, 300.0)[:, None]
    valid = _EXACT_SCALES < T
    points = np.argwhere(valid).tolist()
    rng = random.Random(19)
    for K in fields:
        margin = exact_grid_margins(K, 300)
        if K.field_disc == -9_999_991:
            checked = points
        else:
            checked = rng.sample(points, IDENTITY_EXACT_SAMPLE)
            passed = margin[valid] > 0.0
            if passed.any():
                checked.append(points[int(passed.argmax())])
        for i, j in checked:
            cfg = TestConfig(float(T[i, 0]), float(_EXACT_SCALES[j]))
            assert eval_exact(K, cfg).margin == margin[i, j], (K, cfg)


@pytest.mark.parametrize("criterion", ["generic", "exact"])
def test_scalar_and_array_margins_are_identical(criterion):
    # margin > 0 decides every point of both solvers, as a scalar
    # evaluation and the array element at the same (T, c) are one float:
    # numpy computes each element of a ufunc alike whatever the array's
    # shape, and np.float64 arithmetic is the array loops' IEEE operation
    if criterion == "generic":
        assert_generic_margins_identical()
    else:
        assert_exact_margins_identical()


def test_solvers_raise_when_the_scalar_recheck_fails(monkeypatch):
    # each solver re-checks its answer with the scalar evaluation; a
    # failure there means scalar and array disagree, an arithmetic fault
    def failing(*args, **kwargs):
        return TestEvaluation("failing", -1.0, ())

    monkeypatch.setattr(criteria_engine, "eval_generic", failing)
    with pytest.raises(ArithmeticInvariantError, match="fails in eval_generic"):
        minimal_T_generic(FieldShape(2, 0, 30.0))
    with pytest.raises(ArithmeticInvariantError, match="fails in eval_generic"):
        loglog_disc_threshold(2)
    monkeypatch.setattr(criteria_engine, "eval_exact", failing)
    with pytest.raises(ArithmeticInvariantError, match="fails in eval_exact"):
        minimal_T_exact(quadratic_field(-9999991))


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
    for s in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite"):
            eval_degree_specialized(degree, s)


# T = (4 - 1/(2n)) log^2 disc from these log log disc on, frozen within the
# solver's tol of 1e-5; for n >= 9 it returns the log log of the floor-mode
# guard T >= 1000, not a threshold, so those degrees are not pinned
THRESHOLDS = {2: 9.93559, 3: 10.64690, 4: 11.09625, 5: 11.33780, 6: 11.58577,
              7: 11.60915, 8: 11.67106}


# and T = (4 - 1/(3n)) log^2 disc, the target of the specialized test: true
# crossings, rounded to within 5e-6
THIRD_GAP_THRESHOLDS = {2: 5.58552, 3: 6.34546}


@pytest.mark.parametrize("degree", sorted(THRESHOLDS))
def test_threshold_anchors(degree):
    assert abs(loglog_disc_threshold(degree) - THRESHOLDS[degree]) <= 1e-5


@pytest.mark.parametrize("degree", sorted(THIRD_GAP_THRESHOLDS))
def test_threshold_anchors_third_gap(degree):
    got = loglog_disc_threshold(degree, target_gap=1.0 / (3.0 * degree))
    assert abs(got - THIRD_GAP_THRESHOLDS[degree]) <= 1e-5


@pytest.mark.parametrize("degree", range(2, 13))
def test_threshold_is_a_crossing(degree):
    # checked by eval_generic alone: T = (4 - gap) log^2 disc passes at the
    # returned log log disc, and 1e-5 below it fails or lies below the floor
    c = 1.0 + 1.0 / (4.0 * degree)
    for gap in (1.0 / (2.0 * degree), 1.0 / (3.0 * degree)):

        def evaluation(loglog_disc):
            x = math.exp(loglog_disc)
            shape = FieldShape(degree, degree % 2, x)
            return eval_generic(shape, TestConfig((4.0 - gap) * x * x, c), floor_mode=True)

        loglog = loglog_disc_threshold(degree, target_gap=gap)
        assert evaluation(loglog).passed, (degree, gap)
        try:
            below = evaluation(loglog - 1e-5).passed
        except PreconditionError:
            below = False
        assert not below, (degree, gap)


def threshold_gaps(degree):
    """Gaps spread over (0, 1/(2 degree)], with both canonical gaps."""
    spread = np.linspace(0.0, 1.0 / (2.0 * degree), 26)[1:].tolist()
    return sorted(set(spread) | {1.0 / (3.0 * degree)})


def test_threshold_margin_convex_from_the_guard():
    # the lemma of loglog_disc_threshold: in floor mode the margin at
    # T = k x^2 has second derivative [2 sqrt(c) + 2 M2 (L - 2)/pi]/x^2
    # - 58 delta2/(sqrt(k) x^3) in x = log disc, positive from the guard
    # T >= 1000 on once L > 2 there and, for degree 2, the bracket beats
    # 58/sqrt(k) at the guard. The float margin's chord slopes increase over
    # 20 e-folds of x above the guard, log log disc up to about 22.8, beyond
    # every threshold; further up the margins' rounding, a few ulps of terms
    # near x, swamps second differences of order 1/x
    for n in range(2, 13):
        c = 1.0 + 1.0 / (4.0 * n)
        s = _scales(n, c, True)
        _, m2 = _majorant_coefficients(c, n)
        L = math.log(c * s.floor)
        assert L > 2.0, n
        if n == 2:
            # x sqrt(k) = sqrt(T), so the factor at the guard is the same for every gap
            bracket = 2.0 * math.sqrt(c) + 2.0 * m2 * (L - 2.0) / math.pi
            assert math.sqrt(s.floor) * bracket >= 1.5 * 58.0, n
        for gap in threshold_gaps(n):
            k = 4.0 - gap
            # the grid's first point, log log disc = 1, is below the guard
            assert k * math.exp(1.0) ** 2 < s.floor, (n, gap)
            x = math.sqrt(s.floor / k) * np.exp(np.linspace(0.0, 20.0, 2001))
            margin = _margin(*_generic_terms(n, n % 2, x, k * x * x, s, True))
            slopes = np.diff(margin) / np.diff(x)
            assert (np.diff(slopes) > 0.0).all(), (n, gap)


def test_threshold_degree_below_two():
    # and the specialized constants, which take the degree the same way
    for f in (loglog_disc_threshold, specialized_constants):
        for degree in (0, 1, -3):
            with pytest.raises(ValueError, match="degree must be at least 2"):
                f(degree)
        for degree in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="degree must be an integer"):
                f(degree)
        assert f(np.int64(3)) == f(3)


@pytest.mark.parametrize("degree", [2, 5])
def test_threshold_gap_out_of_range(degree):
    for gap in (0.0, -0.1, 1.0 / (2.0 * degree) + 1e-9, 0.5):
        with pytest.raises(PreconditionError):
            loglog_disc_threshold(degree, target_gap=gap)


# a pass rule on arrays of T that reaches the one failure of the threshold
# search: no pass on the whole grid, up to log log disc = 39
THRESHOLD_FAILURES = {
    "did not bracket a root": lambda T: np.zeros(np.shape(T), dtype=bool),
}


@pytest.mark.parametrize("message", sorted(THRESHOLD_FAILURES))
def test_threshold_no_bound_paths(monkeypatch, message):
    rule = THRESHOLD_FAILURES[message]

    def ruled(degree, r1, log_disc, T, s, floor_mode):
        return np.where(rule(T), 1.0, -1.0), ()

    # a floor of 0 makes every grid point valid, so the rule alone decides
    monkeypatch.setattr(criteria_engine, "_generic_floor", lambda degree, c, floor_mode: 0.0)
    monkeypatch.setattr(criteria_engine, "_generic_terms", ruled)
    with pytest.raises(NoBoundCertifiedError, match=message):
        loglog_disc_threshold(2)


# the rounded slopes of degrees 4..12, frozen
FROZEN_SLOPES = {
    4: 0.00547, 5: 0.00434, 6: 0.00359, 7: 0.00307, 8: 0.00267,
    9: 0.00237, 10: 0.00213, 11: 0.00193, 12: 0.00176,
}


@pytest.mark.parametrize("degree", range(4, 13))
def test_specialized_constants_round_outward(degree):
    # the slope rounds down and the log^2 coefficient up, by under 1e-5
    k = specialized_constants(degree)
    assert k.slope == FROZEN_SLOPES[degree]
    slope = coefficient_of_S(degree, k.c, k.alpha_target)
    assert 0.0 <= slope - k.slope <= 1e-5
    log_sq = 1.0 / (math.sqrt(k.c) * (2.0 * math.pi))
    assert 0.0 <= k.log_sq_coeff - log_sq <= 1e-5


def test_coefficient_of_S_denominator_matches_oracle():
    # at alpha_target = 1e300 the discriminant term 2/sqrt(alpha_target)
    # vanishes beside den/sqrt(c), so the slope is den/c; on the candidate
    # scales den stays near 1, and the log form of the library agrees with
    # the log1p form of kernel_derivation to rounding
    for n in range(2, 101):
        for c in _candidate_scales(n):
            den = coefficient_of_S(n, c, 1e300) * c
            assert den == pytest.approx(window_denominator(c, n), rel=1e-14, abs=0.0), (n, c)


def test_coefficient_of_S_guards():
    for target in (0.0, -1.0):
        with pytest.raises(ValueError):
            coefficient_of_S(4, 1.1, target)
    # c = inf would give inf - inf, a NaN slope
    for c in (0.99, math.nan, math.inf):
        with pytest.raises(ValueError, match="c >= 1"):
            coefficient_of_S(4, c, 3.9)
    for degree in (0, 1):
        with pytest.raises(ValueError, match="degree must be at least 2"):
            coefficient_of_S(degree, 1.1, 3.9)
    for degree in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="degree must be an integer"):
            coefficient_of_S(degree, 1.1, 3.9)
    assert coefficient_of_S(np.int64(4), 1.1, 3.9) == coefficient_of_S(4, 1.1, 3.9)
    # window_denominator(2, 12) = 2 - 24 (1 - log 2) < 0
    with pytest.raises(WindowTooWideError):
        coefficient_of_S(12, 2.0, 3.9)
