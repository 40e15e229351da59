"""Exact and generic criteria and their solvers, against scalar references.

The exact reference scans (T, c) in the solver's order, one point at a
time, and takes every field sum by math.fsum over the prime-ideal powers
that ideal_stream enumerates prime by prime; the solver evaluates whole
blocks of the grid from prefix sums. Both must pick the same (T, c), and
the prefix sums must match the fsum values on random windows. The generic
reference searches each scale c on its own with one eval_generic call per
point; the solver runs all scales in lockstep on numpy arrays, and both
must give the same (T, c) and evaluation. Where the generic criterion,
which bounds the field sums by majorants, passes, the exact one must pass
at the same (T, c).
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
    FieldShape,
    TestConfig,
    TestEvaluation,
    _candidate_scales,
    _generic_floor,
    _generic_terms,
    _scales,
    _size_bound,
    coefficient_of_S,
    eval_degree_specialized,
    eval_exact,
    eval_generic,
    loglog_disc_threshold,
    minimal_T_exact,
    minimal_T_generic,
    specialized_constants,
)
from genbound.errors import NoBoundCertifiedError, PreconditionError, WindowTooWideError
from genbound.number_field import NumberField, load_cubic_fixtures
from genbound.quadratic_classgroup import enumerate_fundamental_discriminants
from genbound.rational_sieve import TWO_PI, NormIndex, majorant_coefficients, scale_majorant

from ideal_stream import ideal_powers, rational_prime_powers

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
# generic criterion and its lockstep solver
# ----------------------------------------------------------------------
def reference_minimal_T_generic(shape, floor_mode):
    """(T, c) of the scalar search, one eval_generic call per probed point.

    Per c: the floor, the cap, a bisection, eight geometric probes below
    the bisected point and, if one passes, a 513-point linear scan; the
    least T wins, ties to the smaller c.
    """

    def ok(t, c):
        return eval_generic(shape, TestConfig(t, c), floor_mode).passed

    t_cap = 4.0 * shape.log_disc ** 2
    best = None
    for c in _candidate_scales(shape.degree):
        t_lo = _generic_floor(shape, c, floor_mode)
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
            if any(ok(p, c) for p in np.geomspace(t_lo, hi, 10)[1:-1]):
                t = next((float(g) for g in np.linspace(t_lo, hi, 513) if ok(g, c)), hi)
        if best is None or t < best[0]:
            best = (t, c)
    if best is None:
        raise NoBoundCertifiedError("no c passes")
    return best


def signatures(degrees):
    return [(n, r1) for n in degrees for r1 in range(n % 2, n + 1, 2)]


# log disc per signature: below and above the floor-mode guard 4 x^2 >= 1000,
# and up to e^12.2, beyond every degree's threshold
GENERIC_LOG_DISCS = (5.0, 14.0, 60.0, 900.0, 2.0e5)
# and this many more per signature, log-uniform in [5, e^12.5] as the
# paper-claims benchmark draws them
GENERIC_RANDOM_LOG_DISCS = 3


@pytest.mark.parametrize("degree", range(2, 11))
def test_generic_solver_matches_scalar_search(degree):
    rng = random.Random(degree)
    for n, r1 in signatures([degree]):
        drawn = [math.exp(rng.uniform(math.log(5.0), 12.5)) for _ in range(GENERIC_RANDOM_LOG_DISCS)]
        for x in GENERIC_LOG_DISCS + tuple(drawn):
            shape = FieldShape(n, r1, x)
            for floor_mode in (False, True):
                try:
                    want = reference_minimal_T_generic(shape, floor_mode)
                except NoBoundCertifiedError:
                    with pytest.raises(NoBoundCertifiedError):
                        minimal_T_generic(shape, floor_mode)
                    continue
                report = minimal_T_generic(shape, floor_mode)
                assert (report.T_bound, report.c_used) == want, (shape, floor_mode)
                ev = eval_generic(shape, TestConfig(*want), floor_mode)
                assert report.margin == ev.margin and report.evaluation == ev


def test_generic_solver_anchors():
    report = minimal_T_generic(FieldShape(2, 0, 30.0))
    assert (report.T_bound, report.c_used) == (3093.9314443198123, 1.03125)
    assert report.criterion_id == "generic" and report.evaluation.passed
    assert minimal_T_generic(FieldShape(2, 2, 30.0)).T_bound == 2824.170784304088


def test_generic_scale_is_plain_float():
    report = minimal_T_generic(FieldShape(2, 0, 20.0))
    assert type(report.c_used) is float and report.evaluation.passed
    assert type(report.T_bound) is float


def test_generic_solver_confirms_near_zero_margins(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_generic(*args, **kwargs)

    monkeypatch.setattr(criteria_engine, "eval_generic", counted)
    shape = FieldShape(4, 2, 30.0)
    report = minimal_T_generic(shape)
    # one bisection midpoint lies within 1e-14 of the terms' size of zero,
    # so the numpy margin cannot decide it; the last call is the re-check
    assert len(calls) >= 2
    monkeypatch.undo()
    assert (report.T_bound, report.c_used) == reference_minimal_T_generic(shape, False)


def test_generic_solver_linear_scan(monkeypatch):
    # a bump in alpha makes the margin pass on a band of small T and fail
    # above it, so an early probe passes and the linear scan takes over
    def bumped(y):
        return alpha(y) + 100.0 * ((250.0 < y) & (y < 400.0))

    monkeypatch.setattr(criteria_engine, "alpha", bumped)
    shape = FieldShape(2, 2, 30.0)
    report = minimal_T_generic(shape)
    assert any("linear scan" in step for step in report.solver_path)
    assert (report.T_bound, report.c_used) == reference_minimal_T_generic(shape, False)
    assert report.T_bound < 400.0


def test_bisection_block_matches_sequential_steps():
    # every pass-flag pattern of one to four levels, on brackets of several
    # sizes: the block's points are the midpoints the sequential bisection
    # probes, bit for bit, and its leaf is the bracket that bisection reaches
    lo = np.array([73.2, 1000.0, 1.0e11, 81.0 / 1.03125])
    hi = np.array([3600.0, 1000.0 + 1e-6, 1.6e11, 2718.28])
    for depth in range(1, 5):
        points = criteria_engine._bisection_points(lo, hi, depth)
        assert (np.diff(points, axis=0) > 0).all()
        n = 2 ** depth - 1
        # column `pattern` passes at points[j + 1] where bit j of pattern is set
        flags = (np.arange(2 ** n) >> np.arange(n)[:, None] & 1).astype(bool)
        patterns = flags.T.tolist()
        leaves = criteria_engine._bisection_leaves(flags)
        monotone = (flags[1:] >= flags[:-1]).all(axis=0)
        assert (leaves[monotone] == n - flags[:, monotone].sum(axis=0)).all()
        for column in points.T.tolist():
            position = {t: i for i, t in enumerate(column)}
            for pattern, passed in enumerate(patterns):
                a, b = column[0], column[-1]
                for _ in range(depth):
                    mid = 0.5 * (a + b)
                    if passed[position[mid] - 1]:
                        b = mid
                    else:
                        a = mid
                assert (a, b) == (column[leaves[pattern]], column[leaves[pattern] + 1]), (depth, pattern)


def test_generic_solver_walks_non_monotone_blocks(monkeypatch):
    # a step in alpha makes the margin pass on a band of y = cT 30 wide,
    # narrower than the spacing (3600 - 73.2)/16 of a first block's points,
    # so some scale's block flags pass below a failure. The scalar search
    # bisects past the band and its probes miss it, so the bound is the one
    # without the step (test_generic_solver_anchors); ending such a scale at
    # its first pass would return a T inside the band instead
    def bumped(y):
        return alpha(y) + 100.0 * ((1750.0 < y) & (y < 1780.0))

    walked = []

    def leaves(passed):
        walked.append(bool((passed[:-1] > passed[1:]).any()))
        return bisection_leaves(passed)

    bisection_leaves = criteria_engine._bisection_leaves
    monkeypatch.setattr(criteria_engine, "alpha", bumped)
    monkeypatch.setattr(criteria_engine, "_bisection_leaves", leaves)
    shape = FieldShape(2, 2, 30.0)
    report = minimal_T_generic(shape)
    assert any(walked)
    assert (report.T_bound, report.c_used) == reference_minimal_T_generic(shape, False)
    assert report.T_bound == 2824.170784304088


def test_generic_solver_one_level_blocks_near_the_floor(monkeypatch):
    # the cap lies 1e-8 above the floor 73.2, too close for a block of four
    # levels to end before a scale may narrow, so every bisection block is
    # one level; alpha drops below y0, so one scale fails at the floor and
    # passes at the cap, the larger scales pass at the floor and the smaller
    # ones nowhere
    shape = FieldShape(3, 3, math.sqrt(73.2 * (1.0 + 1e-8) / 4.0))
    c = _candidate_scales(3)[32]
    y0 = c * 73.2 * (1.0 + 5e-9)

    def dropped(y):
        return alpha(y) - 100.0 * (y <= y0)

    rows = []

    def passes(shape, T, *args, **kwargs):
        rows.append(np.shape(T)[0] if np.ndim(T) == 2 else 1)
        return generic_passes(shape, T, *args, **kwargs)

    generic_passes = criteria_engine._generic_passes
    monkeypatch.setattr(criteria_engine, "alpha", dropped)
    monkeypatch.setattr(criteria_engine, "_generic_passes", passes)
    report = minimal_T_generic(shape)
    assert sum("bisection" in step for step in report.solver_path) == 1
    assert f"c={c:.6f}: bisection" in "".join(report.solver_path)
    # floor, cap, at least two bisection blocks of one level, probes
    assert len(rows) >= 5 and max(rows[2:-1]) == 1
    assert (report.T_bound, report.c_used) == reference_minimal_T_generic(shape, False)


def test_generic_solver_evaluations_per_solve(monkeypatch):
    # floor, cap and probes take one evaluation each, and the 30 bisection
    # steps 7 blocks of four levels and 2 of one level
    calls = []

    def passes(*args, **kwargs):
        calls.append(1)
        return generic_passes(*args, **kwargs)

    generic_passes = criteria_engine._generic_passes
    monkeypatch.setattr(criteria_engine, "_generic_passes", passes)
    shape = FieldShape(6, 0, 1000.0)
    report = minimal_T_generic(shape)
    assert len(calls) <= 13
    assert (report.T_bound, report.c_used) == reference_minimal_T_generic(shape, False)


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
    )
    for degree, r1, x, match in bad_shapes:
        with pytest.raises(ValueError, match=match):
            FieldShape(degree, r1, x)
    assert FieldShape(3, 3, 1e-9).delta2 == 0
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
        lhs, terms = _generic_terms(shape, np.maximum(T, 1000.0), _scales(shape, cs, floor_mode), floor_mode)
        for i, j in ((0, 0), (3, 17), (6, cs.size - 1)):
            t, c = max(float(T[i, 0]), 1000.0), float(cs[j])
            ev = eval_generic(shape, TestConfig(t, c), floor_mode)
            size = abs(ev.lhs) + sum(abs(v) for _, v in ev.rhs_terms)
            assert abs(lhs[i, j] - ev.lhs) <= 1e-15 * size
            for (name, v), (want_name, want) in zip(terms, ev.rhs_terms):
                assert name == want_name
                assert abs(np.broadcast_to(v, lhs.shape)[i, j] - want) <= 1e-14 * size


@pytest.mark.parametrize("degree", range(2, 13))
def test_generic_size_bound_dominates(degree):
    # the solver's size bound, read from the floor and the cap, against
    # |lhs| + sum |term| on a dense grid of [floor, cap] for every scale
    u = np.concatenate([np.linspace(0.0, 1.0, 1001), np.geomspace(1e-9, 1e-3, 200)])[:, None]
    for n, r1 in signatures([degree]):
        for x in (30.0, 900.0, 2.0e5):
            shape = FieldShape(n, r1, x)
            t_cap = 4.0 * x * x
            for floor_mode in (False, True):
                s = _scales(shape, np.array(_candidate_scales(n)), floor_mode)
                s = s.take(s.floor <= t_cap)
                at_floor = _generic_terms(shape, s.floor, s, floor_mode)
                at_cap = _generic_terms(shape, t_cap, s, floor_mode)
                bound = _size_bound(at_floor, at_cap)
                T = np.minimum(s.floor + u * (t_cap - s.floor), t_cap)
                lhs, terms = _generic_terms(shape, T, s, floor_mode)
                size = np.abs(lhs) + sum(np.abs(v) for _, v in terms)
                assert (size <= bound).all(), (shape, floor_mode)


def test_generic_majorant_terms_come_from_the_sieve():
    # test_rational_sieve checks these terms against the closed form
    for n in (3, 4):
        shape = FieldShape(n, n % 2, 100.0)
        for T in (73.2, 100.0, 500.0, 2000.0, 20000.0):
            for c in (1.05, 1.25, 2.0, 3.0):
                terms = dict(eval_generic(shape, TestConfig(T, c)).rhs_terms)
                want = scale_majorant(*majorant_coefficients(c, n), math.sqrt(T), math.log(c * T))
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
            t_lo = _generic_floor(shape, c, False)
            if t_lo > t_cap:
                continue
            cfg = TestConfig(rng.uniform(t_lo, t_cap), c)
            if eval_generic(shape, cfg).passed:
                generic_passes += 1
                assert eval_exact(K, cfg).passed, (K, cfg)
    assert generic_passes > 250


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


# T = (4 - 1/(2n)) log^2 disc from these log log disc on, frozen within the
# solver's tol of 1e-5; for n >= 9 it returns the log log of the floor-mode
# guard T >= 1000, not a threshold, so those degrees are not pinned
THRESHOLDS = {2: 9.93559, 3: 10.64690, 4: 11.09625, 5: 11.33780, 6: 11.58577,
              7: 11.60915, 8: 11.67106}


@pytest.mark.parametrize("degree", sorted(THRESHOLDS))
def test_threshold_anchors(degree):
    assert abs(loglog_disc_threshold(degree) - THRESHOLDS[degree]) <= 1e-5


@pytest.mark.parametrize("degree", [2, 5])
def test_threshold_gap_out_of_range(degree):
    for gap in (0.0, -0.1, 1.0 / (2.0 * degree) + 1e-9, 0.5):
        with pytest.raises(PreconditionError):
            loglog_disc_threshold(degree, target_gap=gap)


@pytest.mark.parametrize("degree", range(4, 13))
def test_specialized_constants_round_outward(degree):
    # the slope rounds down and the log^2 coefficient up, by under 1e-5
    k = specialized_constants(degree)
    slope = coefficient_of_S(degree, k.c, k.alpha_target)
    assert 0.0 <= slope - k.slope <= 1e-5
    log_sq = 1.0 / (math.sqrt(k.c) * TWO_PI)
    assert 0.0 <= k.log_sq_coeff - log_sq <= 1e-5


def test_coefficient_of_S_guards():
    for target in (0.0, -1.0):
        with pytest.raises(ValueError):
            coefficient_of_S(4, 1.1, target)
    with pytest.raises(ValueError):
        coefficient_of_S(4, 0.99, 3.9)
    # window_denominator(2, 12) = 2 - 24 (1 - log 2) < 0
    with pytest.raises(WindowTooWideError):
        coefficient_of_S(12, 2.0, 3.9)
