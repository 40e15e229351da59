"""Generation criteria for class groups and solvers built on them.

Three layers of test, all sharing the window parameters (T, c) with
L = log(cT): the exact per-field form (every prime-ideal term evaluated
from splitting data), the generic shape-only form, and degree-specialized
one-variable reductions in S = sqrt(cT) with published rounded constants.
A passing test certifies that prime ideals of norm <= T generate the
class group; solvers search (T, c) for the least certifiable T.

The generic form bounds a degree-n field's weighted prime-ideal sum over
(T, cT] by n (c-1-log c) T + n (c-1)/(4 pi) sqrt(T) log^2(cT), valid from
T >= SCHOENFELD_FLOOR; its c-only factors (_majorant_coefficients) and its
floor max(73.2, 81 delta2/c) (_generic_floor) serve the specialized test too.

The exact and generic criteria are each written once, in numpy, as a
function of floats or of numpy arrays (_exact_terms, _generic_terms).
minimal_T_exact evaluates a block of the (T, c) grid in one numpy
broadcast; both crossings of the generic criterion, minimal_T_generic's
least T that some scale passes and loglog_disc_threshold's least log log
disc, are found by rounds of one bracket search (_bracket_round), each
deciding a column of 17 points in one call. Two lemmas, each in its
solver's docstring, make the rounds find the right crossing: the generic
margin increases in T at a fixed c (minimal_T_generic), and the floor-mode
margin at T = (4 - gap) log^2 disc is strictly convex in log disc
(loglog_disc_threshold). A margin is the lhs less each term in order
(_margin), at one point (TestEvaluation.margin) as on an array; margin > 0
decides every point.

The premise that makes a scalar evaluation and the array element at the
same (T, c) one float: numpy computes each element of a ufunc the same way
whatever the array's shape, stride or position in it, and np.float64
arithmetic is the same IEEE operation as the array loops. The terms
therefore take every operation from numpy, squares included (np.square:
a float's ** 2 calls pow, which can round differently from x * x). Each
solver re-checks its answer with eval_exact or eval_generic, whose
evaluation it reports; a breach of the premise there raises
ArithmeticInvariantError, so every reported bound passes its scalar
evaluation.

What the generic criterion needs of c alone (sqrt(c), the kernel-slack
term, the majorant coefficients and the validity floor) is taken once per
scale, in _Scales: one row of floats for eval_generic and
loglog_disc_threshold, and for each minimal_T_generic solve one scale
table of arrays over the candidate scales.

What the exact criterion needs of (T, c) alone is taken in _ExactPoints,
and _exact_terms adds the field's part: one point of floats for
eval_exact, or a block of minimal_T_exact's grid. The blocks are the same
for every field, so the table _exact_block keeps the last 8, each built
on first use and read-only (at most 5.4 MB); an alpha or beta patched into
this module reaches minimal_T_exact only through blocks built after the
patch.
"""

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytic_kernel import alpha, beta
from .errors import (
    ArithmeticInvariantError,
    NoBoundCertifiedError,
    PreconditionError,
    WindowTooWideError,
)

# least T of the generic criterion: its majorant rests on the RH bound
# psi(u) <= u + sqrt(u) log^2 u / (4 pi) for u >= 73.2 (Schoenfeld, Math. Comp. 30, 1976)
SCHOENFELD_FLOOR = 73.2

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

# width in log log disc to which loglog_disc_threshold narrows its crossing
_THRESHOLD_TOL = 1e-5

_TWO_PI = 2.0 * math.pi


def _integer(value, name: str) -> int:
    """value as a Python int; a Python or numpy integer, nothing else."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def _degree(degree) -> int:
    """A degree as a Python int, at least 2."""
    degree = _integer(degree, "degree")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return degree


def _delta2(degree: int) -> int:
    """The indicator delta2 of the degree-2 short prime-power bound: 1 for degree 2, else 0."""
    return 1 if degree == 2 else 0


@dataclass(frozen=True)
class FieldShape:
    """Degree, real-place count and discriminant size; all a generic test needs."""

    degree: int
    r1: int
    log_disc: float

    def __post_init__(self):
        object.__setattr__(self, "degree", _degree(self.degree))
        object.__setattr__(self, "r1", _integer(self.r1, "r1"))
        if not 0 <= self.r1 <= self.degree or (self.degree - self.r1) % 2:
            raise ValueError("r1 must match the degree in parity and range")
        if not 0 < self.log_disc <= _MAX_LOG_DISC:
            raise ValueError(f"log_disc must be positive and at most {_MAX_LOG_DISC:.6g}, "
                             "so that 8 log_disc^2 is a finite float")

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
    def margin(self) -> float:
        """The lhs less each term in order: _margin, as the solvers take it."""
        return _margin(self.lhs, self.rhs_terms)

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


def _evaluation(criterion_id: str, lhs, terms) -> TestEvaluation:
    """A TestEvaluation of plain floats from the lhs and named terms of one point."""
    return TestEvaluation(criterion_id, float(lhs), tuple((name, float(v)) for name, v in terms))


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


class _ExactPoints(NamedTuple):
    """The parts of the exact criterion that depend on (T, c) alone.

    Floats for one point (eval_exact), or numpy arrays over a block of the
    (T, c) grid (minimal_T_exact, through _exact_block). alpha(cT) and
    beta(cT) are kept apart from sqrt(cT), so that _exact_terms multiplies
    them in the order a single formula would.
    """

    T: object
    ct: object  # c T
    sqrt_ct: object
    lhs: object  # (sqrt(cT) - 1 - L/2)^2
    disc_factor: object  # 2 (sqrt(cT) - 1)
    alpha: object  # alpha(cT)
    beta: object  # beta(cT)
    short_factor: object  # 8 sqrt(cT)

    def take(self, i) -> "_ExactPoints":
        """The points at index, slice or mask i of every array field."""
        return _ExactPoints(*(v[i] for v in self))


def _exact_points(T, c) -> _ExactPoints:
    """The (T, c)-only parts of the exact criterion.

    T and c are floats or numpy arrays that broadcast together. alpha and
    beta are looked up in this module's namespace, so wrappers placed there
    see these calls.
    """
    ct = c * T
    a = np.sqrt(ct)
    lhs = np.square(a - 1.0 - 0.5 * np.log(ct))
    return _ExactPoints(T, ct, a, lhs, 2.0 * (a - 1.0), alpha(ct), beta(ct), 8.0 * a)


def _exact_terms(field, p: _ExactPoints):
    """LHS and named RHS terms of the exact criterion at the points p.

    Every term comes out in the broadcast shape of p. At c = 1 the window is
    empty and its term is zero.
    """
    primes, powers = field.norm_indexes(np.max(p.ct))
    terms = (
        ("discriminant", p.disc_factor * field.log_abs_disc),
        ("arch_real", -field.r1 * p.sqrt_ct * p.alpha),
        ("arch_total", -field.degree * p.sqrt_ct * p.beta),
        ("short_ideals", p.short_factor * powers.short_sum(p.sqrt_ct)),
        ("window_primes", 2.0 * primes.window_sum(p.T, p.ct)),
    )
    return p.lhs, terms


def eval_exact(field, cfg: TestConfig) -> TestEvaluation:
    """Exact criterion from the field's own ideal data.

    LHS (sqrt(cT) - 1 - L/2)^2 against the discriminant term, the two
    archimedean terms, the short ideal sum (never positive) and the
    window prime sum. Only the intrinsic hypothesis T > c is required;
    the 73.2/81 floors belong to the majorant-based tests.
    """
    lhs, terms = _exact_terms(field, _exact_points(cfg.T, cfg.c))
    return _evaluation("exact", lhs, terms)


def _generic_floor(degree: int, c, floor_mode: bool):
    """Least T at which the generic test is valid, for a float c or a numpy array of them."""
    base = FLOOR_MODE_MIN_T if floor_mode else SCHOENFELD_FLOOR
    return np.maximum(base, _delta2(degree) * SHORT_POWER_MIN_CT / c)


def _majorant_coefficients(c, n: int):
    """The factors of the two degree-n majorant terms that depend on c alone.

    2n(c - 1 - log c) and n(c - 1): _generic_terms times the first by
    sqrt(T) and the second by log^2(cT) / (2 pi). c is a float or a numpy
    array.
    """
    return 2.0 * n * (c - 1.0 - np.log(c)), n * (c - 1.0)


class _Scales(NamedTuple):
    """The parts of the generic criterion that depend on the scale c alone.

    Floats for one scale (eval_generic, loglog_disc_threshold), or numpy
    arrays with one entry per scale: a minimal_T_generic scale table.
    """

    c: object
    sqrt_c: object
    kernel_slack: object  # 2 sqrt(c) - 1
    majorant_linear: object  # _majorant_coefficients
    majorant_log_sq: object
    floor: object  # validity floor, _generic_floor

    def take(self, i) -> "_Scales":
        """The scales at index, slice or mask i of every array field."""
        return _Scales(*(v[i] for v in self))


def _scales(degree: int, c, floor_mode: bool) -> _Scales:
    """The c-only parts of the generic criterion at a float c or an array of scales."""
    sc = np.sqrt(c)
    linear, log_sq = _majorant_coefficients(c, degree)
    return _Scales(c, sc, 2.0 * sc - 1.0, linear, log_sq, _generic_floor(degree, c, floor_mode))


def _generic_terms(degree: int, r1: int, log_disc, T, s: _Scales, floor_mode: bool):
    """LHS and named RHS terms of the generic criterion at (T, s.c).

    log_disc, T and the fields of s are floats or numpy arrays that
    broadcast together. sqrt(T) and log(cT) are taken once, and alpha and
    beta are each called once; they are looked up in this module's
    namespace, so wrappers placed there see array calls too.
    """
    ct = s.c * T
    sc = s.sqrt_c
    st = np.sqrt(T)
    L = np.log(ct)
    a_val = ALPHA_FLOOR if floor_mode else alpha(ct)
    b_val = BETA_FLOOR if floor_mode else beta(ct)
    terms = (
        ("discriminant", 2.0 * sc * log_disc),
        ("kernel_slack", s.kernel_slack),
        ("short_prime_powers", _delta2(degree) * (SHORT_POWER_CONST / st - SHORT_POWER_SLOPE * sc)),
        ("arch_real", -sc * a_val * r1),
        ("arch_total", -sc * b_val * degree),
        ("window_log", sc * L),
        ("majorant_linear", s.majorant_linear * st),
        ("majorant_log_sq", s.majorant_log_sq * L * L / _TWO_PI),
    )
    return s.c * st, terms


def eval_generic(shape: FieldShape, cfg: TestConfig, floor_mode: bool = False) -> TestEvaluation:
    """Shape-only criterion: field sums replaced by rational majorants.

    Valid for T between max(73.2, 81 delta2/c) and 4 log^2 disc; in floor
    mode alpha, beta are frozen at 1 and 4.39 under the extra guard
    T >= 1000.
    """
    T, c = cfg.T, cfg.c
    s = _scales(shape.degree, c, floor_mode)
    if T < s.floor - 1e-12:
        raise PreconditionError(f"T={T:g} below the validity floor for c={c:g}")
    if T > 4.0 * shape.log_disc ** 2 * (1 + 1e-15):
        raise PreconditionError("need T <= 4 log^2 disc to absorb the residual disc term")
    lhs, terms = _generic_terms(shape.degree, shape.r1, shape.log_disc, T, s, floor_mode)
    return _evaluation("generic-floor" if floor_mode else "generic", lhs, terms)


def coefficient_of_S(degree: int, c: float, alpha_target: float) -> float:
    """Net slope of S = sqrt(cT) after moving the discriminant term across,
    assuming T = alpha_target log^2 disc: [den(c)/sqrt(c) - 2/sqrt(alpha_target)]/sqrt(c)."""
    degree = _degree(degree)
    if not alpha_target > 0:
        raise ValueError("alpha_target must be positive")
    if not 1.0 <= c < math.inf:
        raise ValueError("need c >= 1 and finite")
    den = c - float(_majorant_coefficients(c, degree)[0])
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
    degree = _degree(degree)
    c = 1.0 + 1.0 / (4.0 * degree)
    target = 4.0 - 1.0 / (3.0 * degree)
    if degree == 2:
        slope, log_sq = 0.01125, 0.151
    elif degree == 3:
        slope, log_sq = 0.00737, 0.15292
    else:
        slope = _floor5(coefficient_of_S(degree, c, target))
        log_sq = _ceil5(1.0 / (math.sqrt(c) * _TWO_PI))
    return SpecializedConstants(degree, c, target, slope, log_sq)


def eval_degree_specialized(degree: int, s: float) -> TestEvaluation:
    """One-variable criterion in S = sqrt(cT) at the canonical c = 1+1/(4 degree)."""
    k = specialized_constants(degree)
    s_floor = math.sqrt(k.c * _generic_floor(degree, k.c, False))
    if not s_floor - 1e-12 <= s < math.inf:
        raise PreconditionError(f"S={s:g} not finite or below the validity floor {s_floor:.3f}")
    d2 = _delta2(degree)
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
    return _evaluation(f"degree-{degree}", k.slope * s, terms)


@lru_cache(maxsize=None)
def _candidate_scales(degree: int) -> tuple:
    """The window scales c of the generic solver, ascending: 64 geometric
    steps of c - 1 over [1/(16n), 1/n] and c = 1 + 1/(4n), once per degree."""
    lo = 1.0 / (16.0 * degree)
    hi = 1.0 / degree
    cs = {1.0 + g for g in np.geomspace(lo, hi, 64).tolist()}
    cs.add(1.0 + 1.0 / (4.0 * degree))
    return tuple(sorted(cs))


def _margin(lhs, terms):
    """The lhs less each term in order, for one point or for arrays of them."""
    for _, v in terms:
        lhs = lhs - v
    return lhs


# the search stops at a relative width of _WIDTH; each round cuts the
# bracket into _PARTS equal parts, at most _MAX_ROUNDS rounds
# (_PARTS ** _MAX_ROUNDS = 2^80 parts of the first bracket)
_WIDTH = 1e-9
_PARTS = 16
_MAX_ROUNDS = 20


def _bracket_round(lo: float, hi: float, passes):
    """One round of the bracket search on [lo, hi].

    passes maps the 17 points np.linspace(lo, hi, _PARTS + 1), ends
    included, as one column, to a row of flags per point in one call; a
    point passes when any flag in its row is set. Returns the part that ends
    at the first passing point, [lo, lo] if lo passes or none does, and the
    flags at its upper end.
    """
    points = np.linspace(lo, hi, _PARTS + 1)[:, None]
    flags = passes(points)
    first = int(flags.any(axis=1).argmax())
    return float(points[max(first - 1, 0), 0]), float(points[first, 0]), flags[first]


def minimal_T_generic(shape: FieldShape, floor_mode: bool = False) -> BoundReport:
    """Least certifiable norm bound under the generic test, over a c-grid.

    The bound is the least T in [floor(c), 4 log^2 disc] that passes at
    some scale c of _candidate_scales, with the smallest c that passes
    there. One bracket search from the least floor to the cap finds it; a
    point passes where some scale is valid and has margin > 0. It stops at
    a pass at the least floor, at a bracket [lo, hi], lo failing and hi
    passing, narrower than _WIDTH = 1e-9 relative, or after _MAX_ROUNDS =
    20 rounds, and reports hi, which passes eval_generic and lies within
    1e-9 relative of the crossing.

    Lemma: the bracket holds the least passing T, the single crossing.
    At a fixed c write u = sqrt(T), L = log(cT), M1 = 2n(c - 1 - log c) and
    M2 = n(c - 1) (_majorant_coefficients). If alpha and beta are
    nondecreasing (in floor mode they are constants), the margin increases
    in u wherever (c - M1) u > 2 sqrt(c) + 2 M2 L / pi: with dL/du = 2/u its
    derivative in u is c - M1 - 2 sqrt(c)/u - 2 M2 L/(pi u) plus that of
    the 29 delta2/u and the alpha and beta terms, which only help. Divided
    by u, the right side has derivative (2 M2 (2 - L)/pi - 2 sqrt(c))/u^2,
    negative once L > 2, as it is from the floor 73.2 on; so the inequality
    need only hold at the validity floor. There it holds with a factor of at
    least 1.73 for every degree 2..199, candidate scale and floor mode (the
    least at n = 4, c = 1.25; test_generic_margin_increases_from_the_floor).
    So each scale's passes form an up-set of [floor(c), cap], a T below
    floor(c) failing there, and their union over c is an up-set of
    [least floor, cap] whose least point is the minimum over c. A scale
    that fails at a round's passing upper end passes only above it, so each
    round keeps only the scales that pass there; the smallest is reported.
    Each margin is eval_generic's float (the module docstring's premise),
    and eval_generic re-checks the answer, whose evaluation is reported.

    Raises NoBoundCertifiedError when no admissible (T, c) with
    T <= 4 log^2 disc passes, and ArithmeticInvariantError when eval_generic
    fails at the answer, as the scalar and the array then disagree.
    """
    n, r1, x = shape.degree, shape.r1, shape.log_disc
    t_cap = 4.0 * x ** 2
    table = _scales(n, np.array(_candidate_scales(n)), floor_mode)
    s = table.take(table.floor <= t_cap)

    def passes(T):
        """Whether each kept scale is valid and passes, at a column of T."""
        return (T >= s.floor - 1e-12) & (_margin(*_generic_terms(n, r1, x, T, s, floor_mode)) > 0.0)

    # with no scale valid below the cap, lo = hi = cap and the round sees no pass
    lo, hi = float(s.floor.min(initial=t_cap)), t_cap
    path = []
    for _ in range(_MAX_ROUNDS):
        lo, hi, flags = _bracket_round(lo, hi, passes)
        if not flags.any():
            raise NoBoundCertifiedError(f"no bound below 4 log^2 disc certified for degree {n}, "
                                        f"log disc {x:g}")
        path.append(f"T in [{lo:.12g}, {hi:.12g}]: {flags.sum()} of {flags.size} scales pass at hi")
        s = s.take(flags)
        if hi - lo <= _WIDTH * max(1.0, hi):
            break

    c = float(s.c[0])
    ev = eval_generic(shape, TestConfig(hi, c), floor_mode)
    if not ev.passed:
        raise ArithmeticInvariantError(
            f"least T={hi:g} at c={c:g} passes on the array but fails in eval_generic"
        )
    subject = f"degree {n}, r1 {r1}, log disc {x:g}"
    return BoundReport(ev.criterion_id, subject, hi, c, ev, tuple(path))


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

# blocks of the exact grid that _exact_block keeps. A block holds 7 float
# arrays and a mask of up to 256 T by 46 scales, at most 0.67 MB, so the
# cache holds at most 5.4 MB; blocks 0-3 (T < 212), which every quadratic
# field of genbench's census (|d| < 10^5) stays in, take 0.55 MB
_EXACT_BLOCK_CACHE_SIZE = 8


class _ExactBlock(NamedTuple):
    """Block k of the exact grid: integer T in [lo, hi) against _EXACT_SCALES."""

    lo: int
    hi: int
    points: _ExactPoints  # arrays of shape (hi - lo, 1) for T, (hi - lo, scales) else
    valid: np.ndarray  # c < T


@lru_cache(maxsize=_EXACT_BLOCK_CACHE_SIZE)
def _exact_block(k: int) -> _ExactBlock:
    """The (T, c)-only terms of block k, built once per process and read-only."""
    lo, hi = _FIRST_T_BLOCK
    for _ in range(k):
        lo, hi = hi, hi + min(2 * (hi - lo), _MAX_T_BLOCK)
    T = np.arange(lo, hi, dtype=np.float64)[:, None]
    block = _ExactBlock(lo, hi, _exact_points(T, _EXACT_SCALES), _EXACT_SCALES < T)
    for v in (*block.points, block.valid):
        v.flags.writeable = False
    return block


def minimal_T_exact(field, t_ceiling: float | None = None) -> BoundReport:
    """Least integer norm bound the exact criterion certifies for this field.

    Scans T = 2, 3, ... up to t_ceiling (default 4 log^2 disc, else a
    finite float) and, for each T, the window scales c of _EXACT_SCALES
    with c < T in ascending order; the first passing (T, c) in that order
    is returned. The criterion is evaluated in blocks of consecutive T
    times all scales in one numpy broadcast: T in [2, 16) first, then each
    block twice as long as the last, up to _MAX_T_BLOCK values of T. The
    first valid grid point with margin > 0 is the answer; each grid margin
    is the float eval_exact gives at that point (the premise in the module
    docstring). eval_exact's evaluation there is the one reported; if it
    does not pass, the scalar and the array disagree, and the solver raises
    ArithmeticInvariantError.

    A block's (T, c)-only terms (_exact_points) are the same for every
    field, so they are read from _exact_block, a table that keeps the last
    _EXACT_BLOCK_CACHE_SIZE = 8 blocks built in the process (at most 5.4
    MB); a block cut at the cap is a row slice of the full one. Only the
    norm sums and the field's own factors are computed per field. An alpha
    or beta patched into this module therefore reaches this solver only
    through blocks built after the patch (_exact_block.cache_clear() drops
    the others); eval_exact calls them on every evaluation.
    """
    if t_ceiling is None:
        t_ceiling = 4.0 * field.log_abs_disc ** 2
    if not math.isfinite(t_ceiling):
        raise PreconditionError(f"t_ceiling must be finite, not {t_ceiling!r}")
    cap = math.floor(t_ceiling)
    subject = f"degree {field.degree}, |disc| {abs(field.field_disc)}"
    path = []
    k, lo = 0, _FIRST_T_BLOCK[0]
    while lo <= cap:
        block = _exact_block(k)
        hi = min(block.hi, cap + 1)
        points, valid = block.points.take(slice(hi - lo)), block.valid[: hi - lo]
        margin = _margin(*_exact_terms(field, points))
        passed = valid & (margin > 0.0)
        if passed.any():
            # the first pass in scan order, T ascending, then c
            i, j = divmod(int(passed.argmax()), _EXACT_SCALES.size)
            t, c = float(points.T[i, 0]), float(_EXACT_SCALES[j])
            ev = eval_exact(field, TestConfig(t, c))
            if not ev.passed:
                raise ArithmeticInvariantError(
                    f"T={t:g}, c={c:g} passes on the grid but fails in eval_exact"
                )
            path.append(f"T={t:g}: passes at c={c:.6f}")
            return BoundReport("exact", subject, t, c, ev, tuple(path))
        path.append(f"T in [{lo}, {hi - 1}]: {int(valid.sum())} points, none pass")
        k, lo = k + 1, block.hi
    raise NoBoundCertifiedError(f"no integer T <= {cap} certified by the exact test")


def loglog_disc_threshold(degree: int, target_gap: float | None = None) -> float:
    """log log of the least discriminant size certifying T = (4 - gap) log^2 disc.

    Floor mode, c = 1 + 1/(4 degree), worst-case r1 = degree mod 2. A point
    passes where T is valid and margin > 0. One array call decides the grid
    log log disc = 1, 1.05, ..., 39; rounds of _bracket_round narrow the
    step from its last failing point to the pass after it to
    _THRESHOLD_TOL, and eval_generic re-checks the answer, the upper end.

    Lemma: the margin is strictly convex in x = log disc on its valid range
    T >= 1000. Floor mode fixes alpha = 1 and beta = 4.39. Write
    k = 4 - gap, T = k x^2, L = log(cT), and M1, M2 from
    _majorant_coefficients. The margin is K x - 29 delta2/(sqrt(k) x)
    - sqrt(c) L - M2 L^2/(2 pi) + const, with K = c sqrt(k) - 2 sqrt(c)
    - M1 sqrt(k), and as dL/dx = 2/x its second derivative is
    [2 sqrt(c) + 2 M2 (L - 2)/pi]/x^2 - 58 delta2/(sqrt(k) x^3). On the
    valid range L >= log(1000 c) > 2, so x [2 sqrt(c) + 2 M2 (L - 2)/pi]
    grows with x; for delta2 = 1 (degree 2) it exceeds 58/sqrt(k) at the
    guard by sqrt(1000) (2 sqrt(c) + 2 M2 (log(1000 c) - 2)/pi)/58 = 1.59,
    whatever the gap (test_threshold_margin_convex_from_the_guard). So the
    valid failing sizes form one interval, the band of exceptions, and a
    pass after a valid failure is followed only by passes. The grid's first
    point has T <= 4 e^2 < 1000 and always fails; when its last point fails,
    the search did not bracket a root. Left unproved: a failing band that
    holds no grid point, narrower than 0.05 in log log disc and between two
    passing points, is left to an interval-arithmetic check (ROADMAP item 1).
    """
    degree = _degree(degree)
    if target_gap is None:
        target_gap = 1.0 / (2.0 * degree)
    if not 0.0 < target_gap <= 1.0 / (2.0 * degree):
        raise PreconditionError("target_gap must lie in (0, 1/(2 degree)]")
    c = 1.0 + 1.0 / (4.0 * degree)
    coeff = 4.0 - target_gap
    r1 = degree % 2
    s = _scales(degree, c, True)

    def passes(loglog):
        """Whether T = coeff log^2 disc is valid and passes, at an array of log log disc."""
        x = np.exp(loglog)
        T = coeff * x * x
        return (T >= s.floor - 1e-12) & (_margin(*_generic_terms(degree, r1, x, T, s, True)) > 0.0)

    grid = 1.0 + 0.05 * np.arange(761.0)
    j = int(np.flatnonzero(~passes(grid))[-1])
    if j == grid.size - 1:
        raise NoBoundCertifiedError("threshold search did not bracket a root")
    lo, hi = float(grid[j]), float(grid[j + 1])
    while hi - lo > _THRESHOLD_TOL:
        lo, hi, _ = _bracket_round(lo, hi, passes)
    x_star = float(np.exp(hi))
    shape = FieldShape(degree, r1, x_star)
    if not eval_generic(shape, TestConfig(coeff * x_star * x_star, c), floor_mode=True).passed:
        raise ArithmeticInvariantError(f"threshold log log disc {hi:g} passes on the array "
                                       "but fails in eval_generic")
    return hi
