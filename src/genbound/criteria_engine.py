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
broadcast. Each crossing of the generic criterion, minimal_T_generic's
least T that some scale passes and loglog_disc_threshold's least log log
disc, is the least passing point of a fixed lattice of candidates, found
by one bracket search over the lattice's integer indices (_bracket_round).
A round decides at most 17 indices in one call: the first cuts its
bracket into 16 equal parts, each later one into 8, plus 8 indices around
the secant estimate of the crossing (_secant). Each point's float is the
same whichever round decides it (the premise below), so the indices a
round picks change the number of rounds, not the answer. Two lemmas, each
in its solver's docstring, make the rounds find the right crossing: the
generic margin increases in T at a fixed c (minimal_T_generic), and the
floor-mode margin at T = (4 - gap) log^2 disc is strictly convex in log
disc (loglog_disc_threshold). A margin is the lhs less each term in order
(_margin), at one point (TestEvaluation.margin) as on an array; margin > 0
decides every point. A reported generic bound must, besides, clear a
bound on the rounding error of its own evaluation (_rounding_bound).

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
loglog_disc_threshold, and for minimal_T_generic a table of arrays over a
degree's candidate scales, built once per degree and floor mode and
read-only (_scale_table).

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
import struct
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

# loglog_disc_threshold's lattice: log log disc = 1 + 0.05 (k + m / 65536),
# its grid k = 0..760, and in each grid step the points that four rounds of
# 16 parts reach
_THRESHOLD_GRID = 761
_THRESHOLD_STEP = 0.05
_THRESHOLD_DEPTH = 16 ** 4

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


# The generic answer is a point of a fixed candidate set, _Lattice: the
# least floor, the floats strictly between it and the cap whose last
# _LATTICE_SHIFT significand bits are zero, and the cap. Neighbours lie
# 2^-32 to 2^-31 (at most 4.7e-10) apart, relative
_LATTICE_SHIFT = 21

# a round decides at most _PARTS + 1 lattice indices in one call. The
# first cuts its bracket into _PARTS equal parts; each later one cuts it
# into _PARTS // 2, so that the span shrinks to at most ceil(span / 8), and
# adds _PARTS // 2 guided indices, _GUIDES times max(1, span >> 14) away
# from an estimate of the crossing
_PARTS = 16
_GUIDES = (1, 4, 16, 64)
_GUIDE_SHIFT = 14

# a cap on minimal_T_generic's rounds that no search reaches: a lattice
# holds fewer than 2^41 indices (the finite floats >= 2 have 2^62 bit
# patterns), the first round leaves a span of at most 2^37 and each later
# one shrinks it at least 8-fold, so every search ends within 14 rounds
_MAX_ROUNDS = 20

# a generic margin errs by at most _ROUNDING_K 2^-53 (|lhs| + sum |terms|)
_ROUNDING_K = 64


_INT, _FLOAT = struct.Struct("<q"), struct.Struct("<d")


def _bit_pattern(t: float) -> int:
    """The bits of the float t, read as an int: for t >= 0 they order as t does."""
    return _INT.unpack(_FLOAT.pack(t))[0]


class _Lattice(NamedTuple):
    """The candidate T of a generic solve in [lo, hi], by integer index.

    Index k stands for the float whose bits are (j0 + k) << _LATTICE_SHIFT,
    clipped to [lo, hi]: index 0 is lo, index top is hi. The points are
    exact, the same on every platform, as no function is evaluated to make
    them.
    """

    lo: float
    hi: float
    j0: int
    top: int

    @classmethod
    def between(cls, lo: float, hi: float) -> "_Lattice":
        j0 = _bit_pattern(lo) >> _LATTICE_SHIFT
        return cls(lo, hi, j0, -(-_bit_pattern(hi) >> _LATTICE_SHIFT) - j0)

    def point(self, k):
        """The candidate T at each index of the integer array k."""
        t = ((self.j0 + k) << _LATTICE_SHIFT).view(np.float64)
        return np.minimum(np.maximum(t, self.lo), self.hi)

    def value(self, k: int) -> float:
        """The candidate T at the index k, as point gives it."""
        t = _FLOAT.unpack(_INT.pack((self.j0 + k) << _LATTICE_SHIFT))[0]
        return min(max(t, self.lo), self.hi)

    def position(self, t: float) -> float:
        """Where the float t in [lo, hi] lies between the indices, as a float:
        the floats between two neighbours are evenly spaced."""
        return _bit_pattern(t) / (1 << _LATTICE_SHIFT) - self.j0


def _bracket_round(lo: int, hi: int, margins, guess: float | None = None):
    """One round of the bracket search on the lattice indices [lo, hi].

    Without a guess the round takes the _PARTS + 1 indices that cut
    [lo, hi] into _PARTS equal parts, ends included. With one, it takes the
    _PARTS // 2 + 1 indices that cut it into _PARTS // 2 parts, and those
    of b + 1 - m g and b + m g that lie in [lo, hi], for m in _GUIDES,
    g = max(1, (hi - lo) >> _GUIDE_SHIFT) and b = floor(guess): the nearest
    pair are the ends of the step that holds the guess. margins maps the
    indices, ascending as one column, to a row of margins per index in one
    call; an index passes where some margin in its row is > 0. Returns the
    part [lo, hi] that ends at the first passing index ([lo, lo] if lo
    passes or none does), and the rows of margins at its ends.
    """
    span = hi - lo
    if guess is None:
        k = [lo + span * i // _PARTS for i in range(_PARTS + 1)]
    else:
        g, b = max(1, span >> _GUIDE_SHIFT), math.floor(guess)
        parts = _PARTS // 2
        k = sorted([lo + span * i // parts for i in range(parts + 1)]
                   + [min(max(j, lo), hi) for m in _GUIDES for j in (b + 1 - m * g, b + m * g)])
    m = margins(np.array(k)[:, None])
    first = int((m > 0.0).any(axis=1).argmax())
    below = max(first - 1, 0)
    return k[below], k[first], m[below], m[first]


def _secant(x_lo: float, x_hi: float, m_lo, m_hi) -> float | None:
    """The least zero, over the columns valid at x_lo, of the chord through
    (x_lo, m_lo) and (x_hi, m_hi); None where no column is valid there.

    Each column fails at x_lo (m_lo <= 0, or -inf where it is not valid)
    and passes at x_hi (m_hi > 0), so each zero lies in [x_lo, x_hi]. A
    column not valid at x_lo crosses where it becomes valid, which its
    margins do not tell.
    """
    zeros = [x_hi - (x_hi - x_lo) * h / (h - l)
             for l, h in zip(m_lo.tolist(), m_hi.tolist()) if l > -math.inf]
    return min(zeros, default=None)


def _rounding_bound(ev: TestEvaluation) -> float:
    """K 2^-53 (|lhs| + sum |terms|), K = _ROUNDING_K = 64: a bound on how far
    the float margin of a generic evaluation lies from the exact margin at
    the same floats T, c and log disc, for T >= 73.2 and 1 <= c <= 1 + 1/n,
    as at every candidate of minimal_T_generic.

    Write u = 2^-53 and S = |lhs| + sum |terms|, and count errors in units
    of u. +, -, *, / and sqrt round correctly (1 each); log and log1p are
    taken to err by at most 4 ulps, 8 u (numpy's measured within 0.7 ulp), and
    the float constants 4.72, 4.39, log 2, 2 pi and gamma + log 2 pi carry
    their own rounding against the exact values.
    - L = log(cT) >= 4.29 errs by 8 L + 1 <= 9 L, and lhs = c sqrt(T) by
      2 |lhs|.
    - discriminant errs by 2, kernel_slack by 3 (as 2 sqrt(c) <=
      2 (2 sqrt(c) - 1)), window_log by 11 and majorant_log_sq by 23 times
      |term|.
    - short_prime_powers errs by 4 |term| + 2.4 |lhs|, as the cancelling
      29/sqrt(T) is at most 0.4 lhs; majorant_linear by 4 |term| + 16 |lhs|,
      as log c errs by 8 log c inside c - 1 - log c and n log c <= 1.
    - alpha(y) errs by 24 |alpha| and beta(y) by 16 |beta| on y = cT >= 73.2:
      -log y cancels against the rest of the numerator by a factor of at
      most 2.26 and 1.29, at y = 73.2, falling as y grows. So arch_real errs
      by 27 and arch_total by 19 times |term| (by 3 and 4 in floor mode).
    - Each of the eight subtractions of _margin errs by at most S, 8 S in
      all.
    Each term errs by at most 27 |term| and the lhs shares add 20.4 |lhs|,
    so the margin errs by at most 35 S, plus terms of order u^2 S; K = 64
    covers both.
    """
    return _ROUNDING_K * 2.0 ** -53 * (abs(ev.lhs) + sum(abs(v) for _, v in ev.rhs_terms))


@lru_cache(maxsize=None)
def _scale_table(degree: int, floor_mode: bool) -> _Scales:
    """The _scales of _candidate_scales(degree), built once per degree and
    floor mode, as that list is, and read-only."""
    table = _scales(degree, np.array(_candidate_scales(degree)), floor_mode)
    for v in table:
        v.flags.writeable = False
    return table


def minimal_T_generic(shape: FieldShape, floor_mode: bool = False) -> BoundReport:
    """Least certifiable norm bound under the generic test, over a c-grid.

    The bound is the least point of a fixed candidate set that passes at
    some scale c of _candidate_scales, with the smallest c that passes
    there, a point passing where some scale is valid (T >= floor(c) -
    1e-12) and has margin > 0. The candidates (_Lattice) are the least
    floor f0 of the scales, the floats strictly between f0 and the cap
    4 log^2 disc whose last 21 significand bits are zero, and the cap, by
    index from 0, f0, to top, the cap. Neighbours lie at most 4.7e-10
    apart, relative, so the bound lies within 4.7e-10 of the crossing.

    One bracket search over the indices finds it, in rounds of
    _bracket_round. The first decides 17 indices that cut [0, top] into 16
    equal parts. Each later one decides, in its bracket [lo, hi] (lo
    failing, hi passing), the 9 indices that cut it into 8 parts, so that
    the span shrinks at least 8-fold (to at most ceil(span / 8)), and 8
    indices around the secant estimate of the crossing: the least, over the
    scales passing at hi and valid at lo, of the zero of the chord in
    sqrt(T) through their margins at lo and hi (_secant). With no such
    scale the round cuts its bracket into 16 parts, as the first does. The
    search ends on one lattice step, at a pass at f0, or with
    NoBoundCertifiedError when the cap fails. Each point's float is the
    same whichever round and position decides it (the module docstring's
    premise), so where the least crossing is the only one the indices a
    round picks change the number of rounds, not the answer.

    Rounding rule: a bound is reported only where its margin exceeds
    _rounding_bound, a bound on the rounding error of its own evaluation,
    at the smallest scale that clears it there. When no scale clears at the
    least passing point, the answer is the next lattice point, within
    9.4e-10 of the crossing still; when none clears there either, or the cap
    was the least passing point, NoBoundCertifiedError. eval_generic
    evaluates each reported (T, c), and its evaluation is reported.

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
    round keeps only the scales that pass there.

    Raises NoBoundCertifiedError when no candidate T <= 4 log^2 disc passes
    clear of rounding, and ArithmeticInvariantError when eval_generic fails
    at a (T, c) that passes on the array, as the scalar and the array then
    disagree.
    """
    n, r1, x = shape.degree, shape.r1, shape.log_disc
    t_cap = 4.0 * x ** 2
    table = _scale_table(n, floor_mode)
    s = table.take(table.floor <= t_cap)
    # with no scale valid below the cap, every candidate is the cap, and none passes
    lattice = _Lattice.between(float(s.floor.min(initial=t_cap)), t_cap)

    def margins(s, k):
        """The margins of the scales s at the indices k, -inf where a scale is not valid."""
        T = lattice.point(k)
        m = _margin(*_generic_terms(n, r1, x, T, s, floor_mode))
        return np.where(T >= s.floor - 1e-12, m, -np.inf)

    no_bound = f"no bound below 4 log^2 disc certified for degree {n}, log disc {x:g}"
    lo, hi, guess, path = 0, lattice.top, None, []
    for _ in range(_MAX_ROUNDS):
        lo, hi, m_lo, m_hi = _bracket_round(lo, hi, lambda k: margins(s, k), guess)
        keep = m_hi > 0.0
        kept = np.count_nonzero(keep)
        if not kept:
            raise NoBoundCertifiedError(no_bound)
        t_lo, t_hi = lattice.value(lo), lattice.value(hi)
        path.append(f"T in [{t_lo:.12g}, {t_hi:.12g}]: {kept} of {keep.size} scales pass at hi")
        if kept < keep.size:
            s = s.take(keep)
        if hi - lo <= 1:
            break
        u = _secant(math.sqrt(t_lo), math.sqrt(t_hi), m_lo[keep], m_hi[keep])
        guess = None if u is None else lattice.position(u * u)

    subject = f"degree {n}, r1 {r1}, log disc {x:g}"
    for k in range(hi, min(hi + 1, lattice.top) + 1):
        t = lattice.value(k)
        if k > hi:
            s = table.take(margins(table, np.array(k)) > 0.0)
        for c in s.c.tolist():
            ev = eval_generic(shape, TestConfig(t, c), floor_mode)
            if not ev.passed:
                raise ArithmeticInvariantError(
                    f"T={t:g} at c={c:g} passes on the array but fails in eval_generic"
                )
            if ev.margin > _rounding_bound(ev):
                return BoundReport(ev.criterion_id, subject, t, c, ev, tuple(path))
        path.append(f"T={t:.12g}: no scale passes clear of rounding")
    raise NoBoundCertifiedError(no_bound)


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
    passes where T is valid and margin > 0. The candidates are the lattice
    log log disc = 1 + 0.05 (k + m / 65536), k = 0..760, m = 0..65535: the
    grid k, which one array call decides, and in each grid step the points
    that four rounds of 16 parts reach. Rounds of _bracket_round narrow the
    step from the grid's last failing point to the pass after it to one
    lattice step, 7.6e-7, each guided by the secant estimate of the
    crossing in the lattice index (_secant), or cutting its bracket into 16
    parts where T is not valid at the lower end; the answer is the upper
    end, and eval_generic re-checks it.

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
    step = _THRESHOLD_STEP / _THRESHOLD_DEPTH

    def margins(k):
        """The margins at the lattice indices k, -inf where T is not valid."""
        x = np.exp(1.0 + step * k)
        T = coeff * x * x
        m = _margin(*_generic_terms(degree, r1, x, T, s, True))
        return np.where(T >= s.floor - 1e-12, m, -np.inf)

    grid = _THRESHOLD_DEPTH * np.arange(_THRESHOLD_GRID)[:, None]
    m = margins(grid)
    j = int(np.flatnonzero(m <= 0.0)[-1])
    if j == grid.size - 1:
        raise NoBoundCertifiedError("threshold search did not bracket a root")
    lo, hi, m_lo, m_hi = int(grid[j, 0]), int(grid[j + 1, 0]), m[j], m[j + 1]
    while hi - lo > 1:
        lo, hi, m_lo, m_hi = _bracket_round(lo, hi, margins, _secant(lo, hi, m_lo, m_hi))
    loglog = 1.0 + step * hi
    x_star = float(np.exp(loglog))
    shape = FieldShape(degree, r1, x_star)
    if not eval_generic(shape, TestConfig(coeff * x_star * x_star, c), floor_mode=True).passed:
        raise ArithmeticInvariantError(f"threshold log log disc {loglog:g} passes on the array "
                                       "but fails in eval_generic")
    return loglog
