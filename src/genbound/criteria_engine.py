"""Generation criteria for class groups and solvers built on them.

Three layers of test, all sharing the window parameters (T, c) with
L = log(cT): the exact per-field form (every prime-ideal term evaluated
from splitting data), the generic shape-only form (rational majorants in
place of field sums, valid once T >= 73.2), and degree-specialized
one-variable reductions in S = sqrt(cT) with published rounded constants.
A passing test certifies that prime ideals of norm <= T generate the
class group; solvers search (T, c) for the least certifiable T.

The exact and generic criteria are each written once, as a function of
floats or of numpy arrays (_exact_terms, _generic_terms), and their
solvers evaluate many (T, c) in one numpy broadcast: minimal_T_exact a
block of the (T, c) grid, minimal_T_generic the next four levels of the
bisection tree of every candidate scale c at once (the 15 midpoints that
four sequential steps could probe, each scale then taking the path the
sequential bisection takes through them). A numpy margin only decides
points clear of zero; points near it are decided by the scalar eval_exact
or eval_generic, so both solvers return what a scalar search would.

What the generic criterion needs of c alone (sqrt(c), the discriminant
and kernel-slack terms, the majorant coefficients from rational_sieve and
the validity floor) is taken once per scale, in _Scales: one row of floats
for eval_generic, and for each minimal_T_generic solve one scale table of
arrays over the candidate scales. The table also carries, per scale, a
bound on |lhs| + sum |term| over [floor, 4 log^2 disc], against which a
numpy margin counts as near zero.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytic_kernel import alpha, beta, window_denominator
from .errors import NoBoundCertifiedError, PreconditionError, WindowTooWideError
from .rational_sieve import SCHOENFELD_FLOOR, TWO_PI, majorant_coefficients, scale_majorant

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

# 8 log^2 disc, twice the cap 4 log^2 disc on T, lies above every c T and
# every lo + hi the solvers form, so it must be a finite float
_MAX_LOG_DISC = math.sqrt(sys.float_info.max / 8.0)

# width in log log disc to which loglog_disc_threshold bisects its crossing
_THRESHOLD_TOL = 1e-5


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
        if not 0 < self.log_disc <= _MAX_LOG_DISC:
            raise ValueError(f"log_disc must be positive and at most {_MAX_LOG_DISC:.6g}, "
                             "so that 8 log_disc^2 is a finite float")

    @property
    def delta2(self) -> int:
        return 1 if self.degree == 2 else 0

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


def _exact_terms(field, T, c):
    """LHS and named RHS terms of the exact criterion on the window (T, cT].

    T and c are floats or numpy arrays that broadcast together; every term
    comes out in their broadcast shape. At c = 1 the window is empty and
    its term is zero.
    """
    ct = c * T
    a = np.sqrt(ct)
    primes, powers = field.norm_indexes(np.max(ct))
    lhs = (a - 1.0 - 0.5 * np.log(ct)) ** 2
    terms = (
        ("discriminant", 2.0 * (a - 1.0) * field.log_abs_disc),
        ("arch_real", -field.r1 * a * alpha(ct)),
        ("arch_total", -field.degree * a * beta(ct)),
        ("short_ideals", 8.0 * a * powers.short_sum(a)),
        ("window_primes", 2.0 * primes.window_sum(T, ct)),
    )
    return lhs, terms


def eval_exact(field, cfg: TestConfig) -> TestEvaluation:
    """Exact criterion from the field's own ideal data.

    LHS (sqrt(cT) - 1 - L/2)^2 against the discriminant term, the two
    archimedean terms, the short ideal sum (never positive) and the
    window prime sum. Only the intrinsic hypothesis T > c is required;
    the 73.2/81 floors belong to the majorant-based tests.
    """
    lhs, terms = _exact_terms(field, cfg.T, cfg.c)
    return TestEvaluation("exact", float(lhs), tuple((name, float(v)) for name, v in terms))


def _generic_floor(shape: FieldShape, c, floor_mode: bool):
    """Least T at which the generic test is valid, for a float c or a numpy array of them."""
    base = FLOOR_MODE_MIN_T if floor_mode else SCHOENFELD_FLOOR
    short = shape.delta2 * SHORT_POWER_MIN_CT / c
    return np.maximum(base, short) if isinstance(short, np.ndarray) else max(base, short)


class _Scales(NamedTuple):
    """The parts of the generic criterion that depend on the scale c alone.

    Floats for one scale (eval_generic), or numpy arrays with one entry per
    scale: the scale table of a minimal_T_generic solve, which alone fills
    in size.
    """

    c: object
    sqrt_c: object
    discriminant: object  # 2 sqrt(c) log disc
    kernel_slack: object  # 2 sqrt(c) - 1
    majorant_linear: object  # rational_sieve.majorant_coefficients
    majorant_log_sq: object
    floor: object  # validity floor, _generic_floor
    size: object = None  # bound on |lhs| + sum |term| over [floor, 4 log^2 disc]

    def take(self, i) -> "_Scales":
        """The scales at index, slice or mask i of every array field."""
        return _Scales(*(None if v is None else v[i] for v in self))


def _scales(shape: FieldShape, c, floor_mode: bool) -> _Scales:
    """The c-only parts of the generic criterion at a float c or an array of scales."""
    sc = np.sqrt(c) if isinstance(c, np.ndarray) else math.sqrt(c)
    linear, log_sq = majorant_coefficients(c, shape.degree)
    return _Scales(c, sc, 2.0 * sc * shape.log_disc, 2.0 * sc - 1.0, linear, log_sq,
                   _generic_floor(shape, c, floor_mode))


def _generic_terms(shape: FieldShape, T, s: _Scales, floor_mode: bool):
    """LHS and named RHS terms of the generic criterion at (T, s.c).

    T and the fields of s are floats, evaluated with the math module as
    alpha and beta are, or numpy arrays that broadcast together. sqrt(T) and
    log(cT) are taken once, and alpha and beta are each called once; they
    are looked up in this module's namespace, so wrappers placed there see
    array calls too.
    """
    xp = np if isinstance(T, np.ndarray) or isinstance(s.c, np.ndarray) else math
    ct = s.c * T
    sc = s.sqrt_c
    st = xp.sqrt(T)
    L = xp.log(ct)
    n, d2 = shape.degree, shape.delta2
    a_val = ALPHA_FLOOR if floor_mode else alpha(ct)
    b_val = BETA_FLOOR if floor_mode else beta(ct)
    linear, log_sq = scale_majorant(s.majorant_linear, s.majorant_log_sq, st, L)
    terms = (
        ("discriminant", s.discriminant),
        ("kernel_slack", s.kernel_slack),
        ("short_prime_powers", d2 * (SHORT_POWER_CONST / st - SHORT_POWER_SLOPE * sc)),
        ("arch_real", -sc * a_val * shape.r1),
        ("arch_total", -sc * b_val * n),
        ("window_log", sc * L),
        ("majorant_linear", linear),
        ("majorant_log_sq", log_sq),
    )
    return s.c * st, terms


def eval_generic(shape: FieldShape, cfg: TestConfig, floor_mode: bool = False) -> TestEvaluation:
    """Shape-only criterion: field sums replaced by rational majorants.

    Valid for T between max(73.2, 81 delta2/c) and 4 log^2 disc; in floor
    mode alpha, beta are frozen at 1 and 4.39 under the extra guard
    T >= 1000.
    """
    T, c = cfg.T, cfg.c
    s = _scales(shape, c, floor_mode)
    if T < s.floor - 1e-12:
        raise PreconditionError(f"T={T:g} below the validity floor for c={c:g}")
    if T > 4.0 * shape.log_disc ** 2 * (1 + 1e-15):
        raise PreconditionError("need T <= 4 log^2 disc to absorb the residual disc term")
    lhs, terms = _generic_terms(shape, T, s, floor_mode)
    return TestEvaluation("generic-floor" if floor_mode else "generic", lhs, terms)


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


@lru_cache(maxsize=None)
def _candidate_scales(degree: int) -> tuple:
    """The window scales c of the generic solver, ascending: 64 geometric
    steps of c - 1 over [1/(16n), 1/n] and c = 1 + 1/(4n), once per degree."""
    lo = 1.0 / (16.0 * degree)
    hi = 1.0 / degree
    cs = {1.0 + g for g in np.geomspace(lo, hi, 64).tolist()}
    cs.add(1.0 + 1.0 / (4.0 * degree))
    return tuple(sorted(cs))


# an array margin within this share of the size bound _Scales.size of zero
# is decided by eval_generic; numpy's log and summation order move a
# margin by some 1e-15 of |lhs| + sum |term|, which the bound dominates
_GENERIC_SLACK = 1e-12

# the size bound sums each term's larger size at the floor or the cap,
# widened by this share for rounding
_SIZE_ROUNDING = 1e-12


def _generic_margin(lhs, terms):
    for _, v in terms:
        lhs = lhs - v
    return lhs


def _size_bound(at_floor, at_cap):
    """Bound on |lhs| + sum |term| over T in [floor, cap], from the two ends.

    at_floor and at_cap are _generic_terms at T = floor and T = cap. At a
    fixed scale the lhs and every term are monotone in T: each is a factor
    fixed per scale times a constant (the discriminant and kernel-slack
    terms, and the archimedean terms in floor mode), times 29/sqrt(T) less a
    constant, which decreases, or times sqrt(T), log(cT), log^2(cT) with
    cT > 1, alpha(cT) or beta(cT), which increase (analytic_kernel). A
    monotone f on an interval has |f| <= max(|f(floor)|, |f(cap)|) at every
    point, so the sum of those maxima bounds the sum of the sizes at every
    T in between. The sum is widened by _SIZE_ROUNDING: evaluated in floats
    and summed in another order, a size in between can exceed it by ulps.
    """
    (lhs_lo, terms_lo), (lhs_hi, terms_hi) = at_floor, at_cap
    size = np.maximum(np.abs(lhs_lo), np.abs(lhs_hi))
    for (_, lo), (_, hi) in zip(terms_lo, terms_hi):
        size = size + np.maximum(np.abs(lo), np.abs(hi))
    return size * (1.0 + _SIZE_ROUNDING)


def _generic_passes(shape: FieldShape, T, s: _Scales, floor_mode: bool, margin=None) -> np.ndarray:
    """eval_generic(...).passed at every point of T, an array broadcasting with s.

    One numpy evaluation (or the margin already taken at T) decides the
    points whose margin clears zero by more than _GENERIC_SLACK times the
    size bound s.size; eval_generic decides the others, one at a time. A
    bound above the true size only sends more points to eval_generic, so
    every decision is eval_generic's.
    """
    if margin is None:
        margin = _generic_margin(*_generic_terms(shape, T, s, floor_mode))
    passed = margin > 0.0
    near = np.abs(margin) <= _GENERIC_SLACK * s.size
    if np.count_nonzero(near):
        T, c = np.broadcast_arrays(T, s.c)
        for i in zip(*np.nonzero(near)):
            passed[i] = eval_generic(shape, TestConfig(float(T[i]), float(c[i])), floor_mode).passed
    return passed


# a bisection stops at a relative width of _WIDTH; a block of its rounds
# evaluates the next _LOOKAHEAD levels of every open scale's bisection tree
_WIDTH = 1e-9
_LOOKAHEAD = 4


def _bisection_points(lo, hi, depth):
    """lo, the 2^depth - 1 midpoints of depth bisection levels in ascending
    order, and hi: an array of 2^depth + 1 rows, one column per bracket.

    Level by level, each midpoint is 0.5 * (a + b) of its neighbours a < b
    from the levels above, which is the point a sequential bisection of
    [lo, hi] probes at that node, bit for bit.
    """
    points = np.empty((2 ** depth + 1, lo.size))
    points[0], points[-1] = lo, hi
    for level in range(depth):
        step = 2 ** (depth - level)
        points[step // 2::step] = 0.5 * (points[:-1:step] + points[step::step])
    return points


def _bisection_leaves(passed):
    """Per column, the index i of the bracket [points[i], points[i + 1]]
    that a sequential bisection reaches, given its pass flags at the
    midpoints points[1:-1] of _bisection_points, ascending in T.

    Where a column's flags are monotone in T, that is its first pass: i
    counts the failing points. Any other column walks the tree as the
    bisection would: probe the middle point, keep the lower half on a pass
    and the upper half on a failure.
    """
    leaves = passed.shape[0] - passed.sum(axis=0)
    drops = passed[:-1] > passed[1:]
    if drops.any():
        for j in np.flatnonzero(drops.any(axis=0)).tolist():
            i, half = 0, (passed.shape[0] + 1) // 2
            while half:
                if not passed[i + half - 1, j]:
                    i += half
                half //= 2
            leaves[j] = i
    return leaves


# the solver's path line of a scale, by how its search ended; each is
# formatted with (c, floor, cap, least T)
_FLOOR_ABOVE_CAP, _AT_FLOOR, _NO_PASS, _BISECTION, _LINEAR_SCAN = range(5)
_PATH_FORMATS = (
    "c={0:.6f}: floor {1:.6g} above cap {2:.6g}",
    "c={0:.6f}: passes at the floor T={3:.6g}",
    "c={0:.6f}: no pass up to T={2:.6g}",
    "c={0:.6f}: bisection, least T={3:.6g}",
    "c={0:.6f}: linear scan, least T={3:.6g}",
)


def minimal_T_generic(shape: FieldShape, floor_mode: bool = False) -> BoundReport:
    """Least certifiable norm bound under the generic test, over a c-grid.

    For each scale c of _candidate_scales, the least passing T in
    [floor(c), 4 log^2 disc] is found as follows, with margin assumed
    increasing in T: T = floor if it passes, none if the cap fails, else
    bisection to a relative width of _WIDTH = 1e-9 (at most 80 steps). Eight
    geometric probes between the floor and the bisected point then check
    it is the first crossing; if one passes, a 513-point linear scan takes
    the least passing T instead. The smallest T wins, ties going to the
    smaller c.

    A solve first builds its scale table (_Scales): per scale, c, sqrt(c),
    the discriminant and kernel-slack terms, the c-only majorant
    coefficients, the validity floor and a bound on the size |lhs| +
    sum |term| over [floor, cap] (_size_bound), read from the evaluations at
    the floor and the cap that also make the floor and cap tests. All
    scales then run in lockstep, one numpy evaluation (_generic_passes) per
    block of bisection levels and one for the probes, over the scales still
    open. A block evaluates the next _LOOKAHEAD = 4 levels of every open
    scale's bisection tree: its 15 midpoints, built level by level as
    0.5 * (lo + hi) of the same floats, so each is bit for bit a point the
    sequential bisection may probe (_bisection_points). A scale whose pass
    flags are monotone in T moves to the bracket that ends at its first
    pass; any other walks the tree as the sequential bisection does
    (_bisection_leaves). Either way it ends in the bracket four sequential
    steps reach. Blocks skip the width test between levels, so they run
    only while no scale can narrow inside one, a level count taken once per
    solve from the starting widths; the last steps run one level per block
    with the width test after each. Points whose margin is within 1e-12
    times the size bound of zero are decided by eval_generic, so every pass
    flag, and with it the result, is the scalar search's. The winner is
    re-checked by eval_generic, whose evaluation is reported; the path
    lines are formatted once, at the end.

    Raises NoBoundCertifiedError when no admissible (T, c) with
    T <= 4 log^2 disc passes.
    """
    t_cap = 4.0 * shape.log_disc ** 2
    table = _scales(shape, np.array(_candidate_scales(shape.degree)), floor_mode)
    best = np.full(table.c.size, np.inf)
    how = np.full(table.c.size, _FLOOR_ABOVE_CAP)

    idx = np.flatnonzero(table.floor <= t_cap)
    if idx.size:
        s = table.take(idx)
        at_floor = _generic_terms(shape, s.floor, s, floor_mode)
        at_cap = _generic_terms(shape, t_cap, s, floor_mode)
        s = s._replace(size=_size_bound(at_floor, at_cap))
        cap_margin = _generic_margin(*at_cap)
        ok = _generic_passes(shape, s.floor, s, floor_mode, _generic_margin(*at_floor))
        best[idx[ok]] = s.floor[ok]
        how[idx[ok]] = _AT_FLOOR
        idx, s, cap_margin = idx[~ok], s.take(~ok), cap_margin[~ok]
        ok = _generic_passes(shape, t_cap, s, floor_mode, cap_margin)
        how[idx[~ok]] = _NO_PASS
        idx, s = idx[ok], s.take(ok)

    if idx.size:
        # bisect every bracketed scale in lockstep; a scale leaves once narrow.
        # Each level halves a width and hi <= t_cap, so up to level `free`,
        # two short of the ceiling of log2(min(hi - lo) / (_WIDTH max(1,
        # t_cap))), every width is at least twice the narrow one (rounding the
        # midpoints moves it by ulps): blocks of _LOOKAHEAD levels up to there
        # need no width test between their levels
        rows, open_, lo, hi = idx, s, s.floor, np.full(idx.size, t_cap)
        free = math.ceil(math.log2(np.min(hi - lo) / (_WIDTH * max(1.0, t_cap)))) - 2
        steps = 0
        while rows.size and steps < 80:
            depth = _LOOKAHEAD if steps + _LOOKAHEAD <= free else 1
            points = _bisection_points(lo, hi, depth)
            leaf = _bisection_leaves(_generic_passes(shape, points[1:-1], open_, floor_mode))
            cols = np.arange(rows.size)
            lo, hi = points[leaf, cols], points[leaf + 1, cols]
            steps += depth
            narrow = hi - lo <= _WIDTH * np.maximum(1.0, hi)
            if np.count_nonzero(narrow):
                best[rows[narrow]] = hi[narrow]
                wide = ~narrow
                rows, open_, lo, hi = rows[wide], open_.take(wide), lo[wide], hi[wide]
        best[rows] = hi
        how[idx] = _BISECTION

        # certify each bracket really is the first crossing
        hi = best[idx]
        probes = np.geomspace(s.floor, hi, 10)[1:-1]
        early = _generic_passes(shape, probes, s, floor_mode).any(axis=0)
        for j in np.flatnonzero(early).tolist():
            grid = np.linspace(s.floor[j], hi[j], 513)
            passed = _generic_passes(shape, grid, s.take(j), floor_mode)
            if passed.any():
                k = idx[j]
                best[k] = grid[np.argmax(passed)]
                how[k] = _LINEAR_SCAN

    k = int(np.argmin(best))
    if best[k] == np.inf:
        raise NoBoundCertifiedError(
            f"no bound below 4 log^2 disc certified for degree {shape.degree}, "
            f"log disc {shape.log_disc:g}"
        )
    t, c = float(best[k]), float(table.c[k])
    ev = eval_generic(shape, TestConfig(t, c), floor_mode)
    if not ev.passed:
        raise NoBoundCertifiedError(f"least T={t:g} found at c={c:g} fails on re-evaluation")
    subject = f"degree {shape.degree}, r1 {shape.r1}, log disc {shape.log_disc:g}"
    path = tuple(
        _PATH_FORMATS[h].format(ck, lo, t_cap, tk)
        for h, ck, lo, tk in zip(how.tolist(), table.c.tolist(), table.floor.tolist(), best.tolist())
    )
    return BoundReport(ev.criterion_id, subject, t, c, ev, path)


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


def minimal_T_exact(field, t_ceiling: float | None = None) -> BoundReport:
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
        lhs, terms = _exact_terms(field, T, _EXACT_SCALES)
        margin = lhs - sum(v for _, v in terms)
        valid = _EXACT_SCALES < T
        for i, j in zip(*np.nonzero(valid & (margin > -_GRID_SLACK))):
            t, c = float(T[i, 0]), float(_EXACT_SCALES[j])
            ev = eval_exact(field, TestConfig(t, c))
            if ev.passed:
                path.append(f"T={t:g}: passes at c={c:.6f}")
                return BoundReport("exact", subject, t, c, ev, tuple(path))
        path.append(f"T in [{lo}, {hi - 1}]: {int(valid.sum())} points, none pass")
        lo, hi = hi, hi + min(2 * (hi - lo), _MAX_T_BLOCK)
    raise NoBoundCertifiedError(f"no integer T <= {cap} certified by the exact test")


def loglog_disc_threshold(degree: int, target_gap: float | None = None) -> float:
    """log log of the least discriminant size certifying T = (4 - gap) log^2 disc.

    Floor mode, c = 1 + 1/(4 degree), worst-case r1 = degree mod 2. The
    pass region need not be one-sided: large degrees also pass in a band
    of small discriminants before failing again, so the solver walks down
    from far above to bracket the LAST crossing, bisects it to within
    _THRESHOLD_TOL, and certifies the for-all-larger reading with a
    ten-point scan beyond the root.
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
    while hi - lo > _THRESHOLD_TOL:
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
