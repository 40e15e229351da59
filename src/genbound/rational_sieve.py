"""Primes, prime powers and weighted von Mangoldt sums over the rationals.

Backend for the rational majorants of the criteria: Chebyshev psi, the
window-weighted sum over prime powers in (T, cT], its closed-form majorant
(c-1-log c) T + (c-1)/(4 pi) sqrt(T) log^2(cT) per unit degree, and the
empirical scan of the square-root RH bound for psi that the majorant rests
on. The sieve is a flat bit vector, grown on demand: a query above the
current limit re-sieves to the larger of the query and twice that limit.
A query above the fixed ceiling MAX_LIMIT raises SieveCapacityError
before anything is allocated, instead of truncating.

Every weighted sum over norms, here and in number_field, is read from a
NormIndex: the sorted norms N with the prefix sums W, WL and WI of w,
w log N and w / N. A sum over a range of norms is then two binary searches
and a difference of prefix sums, for one bound or for a numpy array of
bounds at once. The difference cancels: its absolute error is a few unit
roundoffs times the prefix sums at the upper bound (up to 1e-10 for field
windows with norms near 10^4), where a direct sum over the range would err
relative to the range's own terms.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SieveCapacityError

__all__ = [
    "MAX_LIMIT",
    "SCHOENFELD_FLOOR",
    "NormIndex",
    "SieveTable",
    "WeightedSum",
    "SchoenfeldReport",
    "chebyshev_psi",
    "default_table",
    "majorant_coefficients",
    "majorant_terms",
    "scale_majorant",
    "schoenfeld_check",
    "weighted_lambda_sum",
    "weighted_sum_majorant",
]

# no table sieves beyond this; the exact criterion reads norms up to
# 16 log^2 disc, under 10^6 even for disc = 10^100
MAX_LIMIT = 10_000_000

# smallest T for which the sqrt-accurate psi bound is available
SCHOENFELD_FLOOR = 73.2

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WeightedSum:
    """Value and bookkeeping of a weighted sum over prime powers in (low, high]."""

    value: float
    term_count: int
    low: float
    high: float


@dataclass(frozen=True)
class SchoenfeldReport:
    """Worst margin of u + sqrt(u) log^2 u / (4 pi) - psi(u) over scanned prime powers."""

    min_margin: float
    argmin: int
    scanned: int


class NormIndex:
    """Sorted norms N with weights w, and the prefix sums of w, w log N and w / N.

    Every query takes a scalar bound or, elementwise, numpy arrays of bounds
    that broadcast together; each costs two binary searches at most.
    """

    def __init__(self, norms, weights):
        self.norms = np.asarray(norms, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        zero = np.zeros(1)
        self._w = np.concatenate((zero, np.cumsum(weights)))
        self._wl = np.concatenate((zero, np.cumsum(weights * np.log(self.norms))))
        self._wi = np.concatenate((zero, np.cumsum(weights / self.norms)))

    def rank(self, x):
        """Number of norms <= x."""
        return np.searchsorted(self.norms, x, side="right")

    def psi(self, x):
        """W(x): sum of w over N <= x."""
        return self._w[self.rank(x)]

    def window_sum(self, low, high):
        """Sum of w log(high / N) over low < N <= high: log(high) dW - dWL."""
        i, j = self.rank(low), self.rank(high)
        return np.log(high) * (self._w[j] - self._w[i]) - (self._wl[j] - self._wl[i])

    def short_sum(self, A):
        """Sum of w (1/A - 1/N) over N <= A: W(A)/A - WI(A)."""
        k = self.rank(A)
        return self._w[k] / A - self._wi[k]


@dataclass(frozen=True)
class _Sieved:
    """One build of a SieveTable: primes and prime powers up to limit, never mutated."""

    limit: int
    primes: np.ndarray
    pp_norms: np.ndarray
    pp_logs: np.ndarray
    pp_index: NormIndex


def _sieve_to(limit: int) -> _Sieved:
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    primes = np.flatnonzero(~is_comp).astype(np.int64)
    norms = [primes]
    logs = [np.log(primes.astype(np.float64))]
    for p in primes:
        p = int(p)
        if p * p > limit:
            break
        q = p * p
        lp = math.log(p)
        while q <= limit:
            norms.append(np.array([q], dtype=np.int64))
            logs.append(np.array([lp]))
            q *= p
    norm_arr = np.concatenate(norms)
    log_arr = np.concatenate(logs)
    order = np.argsort(norm_arr, kind="stable")
    pp_norms, pp_logs = norm_arr[order], log_arr[order]
    return _Sieved(limit, primes, pp_norms, pp_logs, NormIndex(pp_norms, pp_logs))


class SieveTable:
    """Primes and prime powers, sieved on demand up to MAX_LIMIT.

    A query above the current limit re-sieves, under one lock, to the
    larger of the query and twice the limit. Each build is one immutable
    _Sieved snapshot: prime powers as sorted parallel arrays (norm, log p)
    and their NormIndex, which answers psi and range sums. A query takes
    the snapshot once, so it never mixes arrays from two builds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._sieved = _sieve_to(1)

    def _grow(self, x: float) -> _Sieved:
        """The current snapshot, re-sieved first if it ends below x."""
        sieved = self._sieved
        if x <= sieved.limit:
            return sieved
        if x > MAX_LIMIT:
            raise SieveCapacityError(f"query at {x} exceeds the sieve ceiling {MAX_LIMIT}")
        with self._lock:
            sieved = self._sieved
            if x > sieved.limit:
                sieved = _sieve_to(min(max(math.ceil(x), 2 * sieved.limit), MAX_LIMIT))
                self._sieved = sieved
            return sieved

    @property
    def limit(self) -> int:
        return self._sieved.limit

    @property
    def primes(self) -> np.ndarray:
        return self._sieved.primes

    @property
    def pp_norms(self) -> np.ndarray:
        return self._sieved.pp_norms

    @property
    def pp_logs(self) -> np.ndarray:
        return self._sieved.pp_logs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def primes_up_to(self, x: float) -> np.ndarray:
        primes = self._grow(x).primes
        return primes[: np.searchsorted(primes, math.floor(x), side="right")]

    def chebyshev_psi(self, x: float) -> float:
        """Sum of log p over prime powers p^k <= x."""
        if x < 0:
            raise ValueError("psi needs x >= 0")
        return float(self._grow(x).pp_index.psi(x))

    def weighted_lambda_sum(self, T: float, cT: float) -> WeightedSum:
        """Sum of Lambda(a) log(cT/a) over prime powers a in (T, cT]."""
        if not 1.0 <= T < cT:
            raise PreconditionError("need 1 <= T < cT")
        index = self._grow(cT).pp_index
        count = int(index.rank(cT) - index.rank(T))
        return WeightedSum(float(index.window_sum(T, cT)), count, T, cT)

    def schoenfeld_check(self, u_max: int) -> SchoenfeldReport:
        """Scan psi(u) <= u + sqrt(u) log^2 u/(4 pi) over prime powers in [73.2, u_max].

        Returns the minimum margin of the bound; a nonnegative result is the
        empirical support for using that inequality as a premise.
        """
        sieved = self._grow(u_max)
        norms = sieved.pp_norms
        lo = np.searchsorted(norms, SCHOENFELD_FLOOR, side="left")
        hi = np.searchsorted(norms, u_max, side="right")
        if hi <= lo:
            raise PreconditionError("empty scan: no prime powers in [73.2, u_max]")
        u = norms[lo:hi].astype(np.float64)
        # psi evaluated at the jump points themselves, where the margin is smallest
        margins = u + np.sqrt(u) * np.log(u) ** 2 / (4.0 * math.pi) - sieved.pp_index.psi(u)
        k = int(np.argmin(margins))
        return SchoenfeldReport(float(margins[k]), int(norms[lo + k]), int(hi - lo))


def majorant_coefficients(c, n: int):
    """The factors of the two degree-n majorant terms that depend on c alone.

    2n(c - 1 - log c) and n(c - 1): majorant_terms times the first by
    sqrt(T) and the second by log^2(cT) / (2 pi). c is a float, evaluated
    with the math module, or a numpy array.
    """
    log_c = np.log(c) if isinstance(c, np.ndarray) else math.log(c)
    return 2.0 * n * (c - 1.0 - log_c), n * (c - 1.0)


def scale_majorant(linear, log_sq, sqrt_t, log_ct):
    """The two majorant terms from majorant_coefficients, sqrt(T) and log(cT)."""
    return linear * sqrt_t, log_sq * log_ct * log_ct / TWO_PI


def majorant_terms(T, c, n: int):
    """The two terms of the degree-n majorant over (T, cT], per sqrt(T)/2.

    2n(c - 1 - log c) sqrt(T) and n(c - 1) log^2(cT) / (2 pi): the
    majorant_linear and majorant_log_sq terms of the generic criterion.
    T and c are floats, evaluated with the math module, or numpy arrays
    that broadcast together. No validity check: see weighted_sum_majorant.
    """
    xp = np if isinstance(T, np.ndarray) or isinstance(c, np.ndarray) else math
    return scale_majorant(*majorant_coefficients(c, n), xp.sqrt(T), xp.log(c * T))


def weighted_sum_majorant(T: float, c: float, n: int) -> float:
    """Closed-form majorant of the degree-n weighted prime-ideal sum over (T, cT].

    n(c-1-log c) T + n (c-1)/(4 pi) sqrt(T) log^2(cT), the sum of
    majorant_terms times sqrt(T)/2; valid for c >= 1 and T >= 73.2 (the
    floor below which the sqrt-accurate psi bound is not available).
    """
    if c < 1.0:
        raise PreconditionError("majorant needs c >= 1")
    if T < SCHOENFELD_FLOOR:
        raise PreconditionError(f"majorant needs T >= {SCHOENFELD_FLOOR}")
    linear, log_sq = majorant_terms(T, c, n)
    return 0.5 * math.sqrt(T) * (linear + log_sq)


# ----------------------------------------------------------------------
# shared default table
# ----------------------------------------------------------------------
_default_table = SieveTable()


def default_table() -> SieveTable:
    """The process-wide shared table."""
    return _default_table


def chebyshev_psi(x: float) -> float:
    """psi(x) on the shared default table."""
    return default_table().chebyshev_psi(x)


def weighted_lambda_sum(T: float, cT: float) -> WeightedSum:
    """Weighted prime-power sum over (T, cT] on the shared default table."""
    return default_table().weighted_lambda_sum(T, cT)


def schoenfeld_check(u_max: int) -> SchoenfeldReport:
    """sqrt-accurate psi bound scan on the shared default table."""
    return default_table().schoenfeld_check(u_max)
