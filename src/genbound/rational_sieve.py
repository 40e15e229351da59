"""Primes, prime powers and weighted von Mangoldt sums over the rationals.

Backend for the rational majorants of the criteria: Chebyshev psi, the
window-weighted sum over prime powers in (T, cT], its closed-form majorant
(c-1-log c) T + (c-1)/(4 pi) sqrt(T) log^2(cT) per unit degree, and the
empirical scan of the square-root RH bound for psi that the majorant rests
on. The sieve is a flat bit vector; queries beyond its limit fail loudly
instead of truncating.

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

import functools
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SieveCapacityError

__all__ = [
    "DEFAULT_LIMIT",
    "SCHOENFELD_FLOOR",
    "NormIndex",
    "SieveTable",
    "WeightedSum",
    "SchoenfeldReport",
    "chebyshev_psi",
    "default_table",
    "schoenfeld_check",
    "set_default_limit",
    "weighted_lambda_sum",
    "weighted_sum_majorant",
]

DEFAULT_LIMIT = 10_000_000

# smallest T for which the sqrt-accurate psi bound is available
SCHOENFELD_FLOOR = 73.2

_CACHE_MAGIC = b"GPRIMES1"

# largest gap between consecutive primes below 1.8e18 is 1476; far below any
# desk-scale limit the gaps are much smaller, so a cached list whose last
# prime trails the requested limit by more than this cannot be complete
_MAX_PRIME_GAP = 1500


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


class SieveTable:
    """Primes and prime powers up to a fixed limit, immutable after build.

    Prime powers are stored as sorted parallel arrays (norm, log p); their
    NormIndex, built on the first sum query, answers psi and range sums.
    """

    def __init__(self, limit: int = DEFAULT_LIMIT, cache_path: str | None = None):
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        self.limit = int(limit)
        primes = None
        if cache_path and os.path.exists(cache_path):
            primes = self._try_load_cache(cache_path)
        if primes is None:
            primes = self._sieve(self.limit)
            if cache_path:
                self._write_cache(cache_path, primes)
        self.primes = primes
        self._build_prime_powers()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def _sieve(limit: int) -> np.ndarray:
        is_comp = np.zeros(limit + 1, dtype=bool)
        is_comp[:2] = True
        for p in range(2, math.isqrt(limit) + 1):
            if not is_comp[p]:
                is_comp[p * p :: p] = True
        return np.flatnonzero(~is_comp).astype(np.int64)

    def _try_load_cache(self, path: str) -> np.ndarray | None:
        try:
            with open(path, "rb") as fh:
                magic = fh.read(8)
                if magic != _CACHE_MAGIC:
                    return None
                (count,) = struct.unpack("<Q", fh.read(8))
                data = np.fromfile(fh, dtype="<i8", count=count)
        except (OSError, struct.error):
            return None
        if len(data) != count or count == 0:
            return None
        last = int(data[-1])
        if last > self.limit or self.limit - last > _MAX_PRIME_GAP:
            # wrong range for this table: either sieved further than asked
            # (fine to rebuild) or visibly incomplete
            return None
        if data[0] != 2 or np.any(np.diff(data) <= 0):
            return None
        return data.astype(np.int64)

    def _write_cache(self, path: str, primes: np.ndarray) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<Q", len(primes)))
            primes.astype("<i8").tofile(fh)
        os.replace(tmp, path)

    def _build_prime_powers(self) -> None:
        norms = [self.primes]
        logs = [np.log(self.primes.astype(np.float64))]
        for p in self.primes:
            p = int(p)
            if p * p > self.limit:
                break
            q = p * p
            lp = math.log(p)
            while q <= self.limit:
                norms.append(np.array([q], dtype=np.int64))
                logs.append(np.array([lp]))
                q *= p
        norm_arr = np.concatenate(norms)
        log_arr = np.concatenate(logs)
        order = np.argsort(norm_arr, kind="stable")
        self.pp_norms = norm_arr[order]
        self.pp_logs = log_arr[order]

    @functools.cached_property
    def pp_index(self) -> NormIndex:
        # built lazily: the shared table serves field streams through
        # primes_up_to alone, and four more arrays its size would be dead weight
        return NormIndex(self.pp_norms, self.pp_logs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_capacity(self, x: float) -> None:
        if x > self.limit:
            raise SieveCapacityError(
                f"query at {x} exceeds sieve limit {self.limit}; "
                "raise GENBOUND_SIEVE_LIMIT or build a larger table"
            )

    def primes_up_to(self, x: float) -> np.ndarray:
        self._check_capacity(x)
        idx = np.searchsorted(self.primes, math.floor(x), side="right")
        return self.primes[:idx]

    def chebyshev_psi(self, x: float) -> float:
        """Sum of log p over prime powers p^k <= x."""
        if x < 0:
            raise ValueError("psi needs x >= 0")
        self._check_capacity(x)
        return float(self.pp_index.psi(x))

    def weighted_lambda_sum(self, T: float, cT: float) -> WeightedSum:
        """Sum of Lambda(a) log(cT/a) over prime powers a in (T, cT]."""
        if not 1.0 <= T < cT:
            raise PreconditionError("need 1 <= T < cT")
        self._check_capacity(cT)
        index = self.pp_index
        count = int(index.rank(cT) - index.rank(T))
        return WeightedSum(float(index.window_sum(T, cT)), count, T, cT)

    def schoenfeld_check(self, u_max: int) -> SchoenfeldReport:
        """Scan psi(u) <= u + sqrt(u) log^2 u/(4 pi) over prime powers in [73.2, u_max].

        Returns the minimum margin of the bound; a nonnegative result is the
        empirical support for using that inequality as a premise.
        """
        self._check_capacity(u_max)
        lo = np.searchsorted(self.pp_norms, SCHOENFELD_FLOOR, side="left")
        hi = np.searchsorted(self.pp_norms, u_max, side="right")
        if hi <= lo:
            raise PreconditionError("empty scan: no prime powers in [73.2, u_max]")
        u = self.pp_norms[lo:hi].astype(np.float64)
        # psi evaluated at the jump points themselves, where the margin is smallest
        margins = u + np.sqrt(u) * np.log(u) ** 2 / (4.0 * math.pi) - self.pp_index.psi(u)
        k = int(np.argmin(margins))
        return SchoenfeldReport(float(margins[k]), int(self.pp_norms[lo + k]), int(hi - lo))


def weighted_sum_majorant(T: float, c: float, n: int) -> float:
    """Closed-form majorant of the degree-n weighted prime-ideal sum over (T, cT].

    n(c-1-log c) T + n (c-1)/(4 pi) sqrt(T) log^2(cT); valid for c >= 1 and
    T >= 73.2 (the floor below which the sqrt-accurate psi bound is not
    available).
    """
    if c < 1.0:
        raise PreconditionError("majorant needs c >= 1")
    if T < SCHOENFELD_FLOOR:
        raise PreconditionError(f"majorant needs T >= {SCHOENFELD_FLOOR}")
    h = c - 1.0
    main = n * (h - math.log1p(h)) * T
    err = n * h / (4.0 * math.pi) * math.sqrt(T) * math.log(c * T) ** 2
    return main + err


# ----------------------------------------------------------------------
# shared default table
# ----------------------------------------------------------------------
_default_lock = threading.Lock()
_default_table: SieveTable | None = None
_default_limit_override: int | None = None


def _env_limit() -> int:
    raw = os.environ.get("GENBOUND_SIEVE_LIMIT")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"bad GENBOUND_SIEVE_LIMIT: {raw!r}") from exc
    return DEFAULT_LIMIT


def set_default_limit(limit: int | None) -> None:
    """Override the default sieve limit (None restores the environment default)."""
    global _default_table, _default_limit_override
    with _default_lock:
        _default_limit_override = limit
        _default_table = None


def default_table() -> SieveTable:
    """Process-wide shared table, built lazily at the configured limit."""
    global _default_table
    with _default_lock:
        if _default_table is None:
            limit = _default_limit_override or _env_limit()
            cache = os.environ.get("GENBOUND_PRIME_CACHE")
            _default_table = SieveTable(limit, cache_path=cache)
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
