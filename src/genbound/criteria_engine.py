"""Generation criteria for class groups and solvers built on them.

Three layers of test, all sharing the window parameters (T, c) with
L = log(cT): the exact per-field form (every prime-ideal term evaluated
from splitting data), the generic shape-only form (rational majorants in
place of field sums, valid once T >= 73.2), and degree-specialized
one-variable reductions in S = sqrt(cT) with published rounded constants.
A passing test certifies that prime ideals of norm <= T generate the
class group; solvers search (T, c) for the least certifiable T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic_kernel import alpha, beta, window_denominator
from .errors import NoBoundCertifiedError, PreconditionError, WindowTooWideError
from .rational_sieve import SCHOENFELD_FLOOR

# floor-mode replacements for alpha/beta: both functions are increasing,
# so constants below alpha(1000), beta(1000) stay conservative once the
# guard T >= 1000 holds
ALPHA_FLOOR = 1.0
BETA_FLOOR = 4.39
FLOOR_MODE_MIN_T = 1000.0

# degree-2 short prime-power bound: the ideals of norm 4 and 9 alone give
# 16 log 6 - (4 log 2 + 16/9 log 3) sqrt(cT), rounded outward to
# 29 - 4.72 sqrt(cT); needs cT >= 81 so that norm 9 is inside the window
SHORT_POWER_SLOPE = 4.72
SHORT_POWER_CONST = 29.0
SHORT_POWER_MIN_CT = 81.0

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FieldShape:
    """Degree, real-place count and discriminant size; all a generic test needs."""

    degree: int
    r1: int
    log_disc: float

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if not 0 <= self.r1 <= self.degree or (self.degree - self.r1) % 2:
            raise ValueError("r1 must match the degree in parity and range")
        if not self.log_disc > 0:
            raise ValueError("log_disc must be positive")

    @property
    def r2(self) -> int:
        return (self.degree - self.r1) // 2

    @property
    def delta2(self) -> int:
        return 1 if self.degree == 2 else 0

    @property
    def delta_odd(self) -> int:
        return self.degree % 2

    @classmethod
    def of_field(cls, field) -> "FieldShape":
        return cls(field.degree, field.r1, field.log_abs_disc)


@dataclass(frozen=True)
class TestConfig:
    """Window parameters: norm bound T and scale c with window (T, cT]."""

    __test__ = False  # a library class, not a pytest test class

    T: float
    c: float

    def __post_init__(self):
        if self.c < 1.0:
            raise PreconditionError("window scale c must be >= 1")
        if not self.T > self.c:
            raise PreconditionError("need T > c, so the window midpoint exp(L/2) stays below T")

    @property
    def ct(self) -> float:
        return self.c * self.T

    @property
    def log_window(self) -> float:
        return math.log(self.ct)


@dataclass(frozen=True)
class TestEvaluation:
    __test__ = False  # a library class, not a pytest test class

    criterion_id: str
    lhs: float
    rhs_terms: tuple  # ((name, value), ...) in fixed order

    @property
    def rhs(self) -> float:
        return math.fsum(v for _, v in self.rhs_terms)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


@dataclass(frozen=True)
class BoundReport:
    criterion_id: str
    subject: str
    T_bound: float
    c_used: float
    evaluation: TestEvaluation
    solver_path: tuple

    @property
    def margin(self) -> float:
        return self.evaluation.margin


def _exact_terms(field, T, c, table=None):
    """LHS and named RHS terms of the exact criterion on the window (T, cT].

    T and c are floats or numpy arrays that broadcast together; every term
    comes out in their broadcast shape. At c = 1 the window is empty and
    its term is zero.
    """
    ct = c * T
    a = np.sqrt(ct)
    primes, powers = field.norm_indexes(np.max(ct), table)
    lhs = (a - 1.0 - 0.5 * np.log(ct)) ** 2
    terms = (
        ("discriminant", 2.0 * (a - 1.0) * field.log_abs_disc),
        ("arch_real", -field.r1 * a * alpha(ct)),
        ("arch_total", -field.degree * a * beta(ct)),
        ("short_ideals", 8.0 * a * powers.short_sum(a)),
        ("window_primes", 2.0 * primes.window_sum(T, ct)),
    )
    return lhs, terms


def eval_exact(field, cfg: TestConfig, table=None) -> TestEvaluation:
    """Exact criterion from the field's own ideal data.

    LHS (sqrt(cT) - 1 - L/2)^2 against the discriminant term, the two
    archimedean terms, the short ideal sum (never positive) and the
    window prime sum. Only the intrinsic hypothesis T > c is required;
    the 73.2/81 floors belong to the majorant-based tests.
    """
    lhs, terms = _exact_terms(field, cfg.T, cfg.c, table)
    return TestEvaluation("exact", float(lhs), tuple((name, float(v)) for name, v in terms))


def _generic_floor(shape: FieldShape, c: float, floor_mode: bool) -> float:
    lo = max(SCHOENFELD_FLOOR, shape.delta2 * SHORT_POWER_MIN_CT / c)
    if floor_mode:
        lo = max(lo, FLOOR_MODE_MIN_T)
    return lo


def eval_generic(shape: FieldShape, cfg: TestConfig, floor_mode: bool = False) -> TestEvaluation:
    """Shape-only criterion: field sums replaced by rational majorants.

    Valid for T between max(73.2, 81 delta2/c) and 4 log^2 disc; in floor
    mode alpha, beta are frozen at 1 and 4.39 under the extra guard
    T >= 1000.
    """
    T, c = cfg.T, cfg.c
    if T < _generic_floor(shape, c, floor_mode) - 1e-12:
        raise PreconditionError(f"T={T:g} below the validity floor for c={c:g}")
    if T > 4.0 * shape.log_disc ** 2 * (1 + 1e-15):
        raise PreconditionError("need T <= 4 log^2 disc to absorb the residual disc term")
    ct = cfg.ct
    sc = math.sqrt(c)
    st = math.sqrt(T)
    L = cfg.log_window
    n, d2 = shape.degree, shape.delta2
    a_val = ALPHA_FLOOR if floor_mode else alpha(ct)
    b_val = BETA_FLOOR if floor_mode else beta(ct)
    terms = (
        ("discriminant", 2.0 * sc * shape.log_disc),
        ("kernel_slack", 2.0 * sc - 1.0),
        ("short_prime_powers", d2 * (SHORT_POWER_CONST / st - SHORT_POWER_SLOPE * sc)),
        ("arch_real", -sc * a_val * shape.r1),
        ("arch_total", -sc * b_val * n),
        ("window_log", sc * L),
        ("majorant_linear", 2.0 * n * (c - 1.0 - math.log(c)) * st),
        ("majorant_log_sq", n * (c - 1.0) * L * L / TWO_PI),
    )
    return TestEvaluation("generic-floor" if floor_mode else "generic", c * st, terms)


def coefficient_of_S(degree: int, c: float, alpha_target: float) -> float:
    """Net slope of S = sqrt(cT) after moving the discriminant term across,
    assuming T = alpha_target log^2 disc: [den(c)/sqrt(c) - 2/sqrt(alpha_target)]/sqrt(c)."""
    if not alpha_target > 0:
        raise ValueError("alpha_target must be positive")
    if c < 1.0:
        raise ValueError("need c >= 1")
    den = window_denominator(c, degree)
    if den <= 0.0:
        raise WindowTooWideError(f"window denominator nonpositive at c={c:g}, degree {degree}")
    return (den / math.sqrt(c) - 2.0 / math.sqrt(alpha_target)) / math.sqrt(c)


def _floor5(x: float) -> float:
    return math.floor(x * 1e5) / 1e5


def _ceil5(x: float) -> float:
    return math.ceil(x * 1e5) / 1e5


@dataclass(frozen=True)
class SpecializedConstants:
    degree: int
    c: float
    alpha_target: float
    slope: float
    log_sq_coeff: float


def specialized_constants(degree: int) -> SpecializedConstants:
    """Rounded constants of the one-variable degree test.

    Degrees 2 and 3 carry the published roundings; higher degrees round
    the same way (slope down, log^2 coefficient up, five decimals).
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    c = 1.0 + 1.0 / (4.0 * degree)
    target = 4.0 - 1.0 / (3.0 * degree)
    if degree == 2:
        slope, log_sq = 0.01125, 0.151
    elif degree == 3:
        slope, log_sq = 0.00737, 0.15292
    else:
        slope = _floor5(coefficient_of_S(degree, c, target))
        log_sq = _ceil5(1.0 / (math.sqrt(c) * TWO_PI))
    return SpecializedConstants(degree, c, target, slope, log_sq)


def specialized_margin(degree: int, s: float) -> float:
    """Bare inequality gap of the degree test at S = s, full alpha/beta.

    Positive gap means the inequality holds. No validity floor is
    enforced here; as a generation criterion use eval_degree_specialized.
    """
    k = specialized_constants(degree)
    d2 = 1.0 if degree == 2 else 0.0
    dodd = degree % 2
    y = s * s
    ls = math.log(s)
    rhs = (
        1.06
        - SHORT_POWER_SLOPE * d2
        + SHORT_POWER_CONST * d2 / s
        - dodd * alpha(y)
        - degree * beta(y)
        + 2.0 * ls
        + k.log_sq_coeff * ls * ls
    )
    return k.slope * s - rhs


def eval_degree_specialized(degree: int, s: float) -> TestEvaluation:
    """One-variable criterion in S = sqrt(cT) at the canonical c = 1+1/(4 degree)."""
    k = specialized_constants(degree)
    s_floor = math.sqrt(k.c * SCHOENFELD_FLOOR)
    if degree == 2:
        s_floor = max(s_floor, math.sqrt(SHORT_POWER_MIN_CT))
    if s < s_floor - 1e-12:
        raise PreconditionError(f"S={s:g} below the validity floor {s_floor:.3f}")
    d2 = 1.0 if degree == 2 else 0.0
    dodd = degree % 2
    y = s * s
    ls = math.log(s)
    terms = (
        ("base", 1.06 - SHORT_POWER_SLOPE * d2),
        ("short_prime_powers", SHORT_POWER_CONST * d2 / s),
        ("arch_real", -dodd * alpha(y)),
        ("arch_total", -degree * beta(y)),
        ("window_log", 2.0 * ls),
        ("majorant_log_sq", k.log_sq_coeff * ls * ls),
    )
    return TestEvaluation(f"degree-{degree}", k.slope * s, terms)


def _candidate_scales(degree: int):
    lo = 1.0 / (16.0 * degree)
    hi = 1.0 / degree
    cs = {1.0 + g for g in np.geomspace(lo, hi, 64).tolist()}
    cs.add(1.0 + 1.0 / (4.0 * degree))
    return sorted(cs)


def _least_passing_T(shape, c, t_lo, t_cap, floor_mode, path):
    """Least T in [t_lo, t_cap] passing the generic test at this c, or None.

    Binary search assuming margin is increasing in T; a spot check below
    the found point falls back to a linear scan when that fails.
    """

    def ok(t):
        return eval_generic(shape, TestConfig(t, c), floor_mode).passed

    if ok(t_lo):
        path.append(f"c={c:.6f}: passes at the floor T={t_lo:.6g}")
        return t_lo
    if not ok(t_cap):
        path.append(f"c={c:.6f}: no pass up to T={t_cap:.6g}")
        return None
    lo, hi = t_lo, t_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    # certify the bracket really is the first crossing
    probes = np.geomspace(t_lo, hi, 10)[1:-1]
    early = [t for t in probes if ok(t)]
    if early:
        grid = np.linspace(t_lo, hi, 513)
        for t in grid:
            if ok(t):
                path.append(f"c={c:.6f}: linear scan, least T={t:.6g}")
                return float(t)
    path.append(f"c={c:.6f}: bisection, least T={hi:.6g}")
    return hi


def minimal_T_generic(shape: FieldShape, floor_mode: bool = False) -> BoundReport:
    """Least certifiable norm bound under the generic test, over a c-grid.

    Raises NoBoundCertifiedError when no admissible (T, c) with
    T <= 4 log^2 disc passes.
    """
    t_cap = 4.0 * shape.log_disc ** 2
    path = []
    best = None
    for c in _candidate_scales(shape.degree):
        t_lo = _generic_floor(shape, c, floor_mode)
        if t_lo > t_cap:
            path.append(f"c={c:.6f}: floor {t_lo:.6g} above cap {t_cap:.6g}")
            continue
        t = _least_passing_T(shape, c, t_lo, t_cap, floor_mode, path)
        if t is not None and (best is None or t < best[0]):
            best = (t, c)
    if best is None:
        raise NoBoundCertifiedError(
            f"no bound below 4 log^2 disc certified for degree {shape.degree}, "
            f"log disc {shape.log_disc:g}"
        )
    t, c = best
    ev = eval_generic(shape, TestConfig(t, c), floor_mode)
    if not ev.passed:
        raise NoBoundCertifiedError(f"least T={t:g} found at c={c:g} fails on re-evaluation")
    subject = f"degree {shape.degree}, r1 {shape.r1}, log disc {shape.log_disc:g}"
    return BoundReport(ev.criterion_id, subject, t, c, ev, tuple(path))


# window scales tried by the exact solver, ascending: 1 (empty window) plus
# a geometric sweep up to 4
_EXACT_SCALES = np.array(sorted(
    {1.0, 1.5, 2.0, 2.5, 3.0, 3.5} | {1.0 + g for g in np.geomspace(1.0 / 64.0, 3.0, 40)}
))

# the exact solver evaluates integer T in blocks: [2, 16) first, then each
# block twice as long as the last, up to this many T, so the grid's memory
# does not grow with the discriminant
_FIRST_T_BLOCK = (2, 16)
_MAX_T_BLOCK = 256

# grid points whose margin, summed in numpy, exceeds -_GRID_SLACK are
# re-evaluated by eval_exact; the two sums of the same terms differ by
# rounding only, some 1e-12 on terms of size up to 1e4
_GRID_SLACK = 1e-9


def minimal_T_exact(field, t_ceiling: float | None = None, table=None) -> BoundReport:
    """Least integer norm bound the exact criterion certifies for this field.

    Scans T = 2, 3, ... up to t_ceiling (default 4 log^2 disc) and, for each
    T, the window scales c of _EXACT_SCALES with c < T in ascending order;
    the first passing (T, c) in that order is returned. The criterion is
    evaluated in blocks of consecutive T times all scales in one numpy
    broadcast: T in [2, 16) first, then each block twice as long as the
    last, up to _MAX_T_BLOCK values of T. Grid points that pass, or nearly
    pass, are confirmed in scan order by eval_exact, whose evaluation is
    the one reported; where eval_exact does not pass, the scan goes on.
    """
    if t_ceiling is None:
        t_ceiling = 4.0 * field.log_abs_disc ** 2
    cap = math.floor(t_ceiling)
    subject = f"degree {field.degree}, |disc| {abs(field.field_disc)}"
    path = []
    lo, hi = _FIRST_T_BLOCK
    while lo <= cap:
        hi = min(hi, cap + 1)
        T = np.arange(lo, hi, dtype=np.float64)[:, None]
        lhs, terms = _exact_terms(field, T, _EXACT_SCALES, table)
        margin = lhs - sum(v for _, v in terms)
        valid = _EXACT_SCALES < T
        for i, j in zip(*np.nonzero(valid & (margin > -_GRID_SLACK))):
            t, c = float(T[i, 0]), float(_EXACT_SCALES[j])
            ev = eval_exact(field, TestConfig(t, c), table=table)
            if ev.passed:
                path.append(f"T={t:g}: passes at c={c:.6f}")
                return BoundReport("exact", subject, t, c, ev, tuple(path))
        path.append(f"T in [{lo}, {hi - 1}]: {int(valid.sum())} points, none pass")
        lo, hi = hi, hi + min(2 * (hi - lo), _MAX_T_BLOCK)
    raise NoBoundCertifiedError(f"no integer T <= {cap} certified by the exact test")


def loglog_disc_threshold(degree: int, target_gap: float | None = None, tol: float = 1e-5) -> float:
    """log log of the least discriminant size certifying T = (4 - gap) log^2 disc.

    Floor mode, c = 1 + 1/(4 degree), worst-case r1 = degree mod 2. The
    pass region need not be one-sided: large degrees also pass in a band
    of small discriminants before failing again, so the solver walks down
    from far above to bracket the LAST crossing, bisects it to within
    tol, and certifies the for-all-larger reading with a ten-point scan
    beyond the root.
    """
    n = degree
    if target_gap is None:
        target_gap = 1.0 / (2.0 * n)
    if not 0.0 < target_gap <= 1.0 / (2.0 * n):
        raise PreconditionError("target_gap must lie in (0, 1/(2 degree)]")
    c = 1.0 + 1.0 / (4.0 * n)
    coeff = 4.0 - target_gap
    shape_r1 = n % 2

    def passes(x: float) -> bool:
        shape = FieldShape(n, shape_r1, x)
        try:
            return eval_generic(shape, TestConfig(coeff * x * x, c), floor_mode=True).passed
        except PreconditionError:
            return False

    hi = 13.0
    while not passes(math.exp(hi)):
        hi += 2.0
        if hi > 40.0:
            raise NoBoundCertifiedError("threshold search did not bracket a root")
    lo = hi - 0.05
    while passes(math.exp(lo)):
        hi = lo
        lo -= 0.05
        if lo < 1.0:
            raise NoBoundCertifiedError("criterion passes at every probed size; no threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(math.exp(mid)):
            hi = mid
        else:
            lo = mid
    x_star = math.exp(hi)
    for mult in (1.01, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.85, 2.0):
        if not passes(x_star * mult):
            raise NoBoundCertifiedError("criterion not monotone beyond the threshold")
    return hi
