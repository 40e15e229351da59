"""Primes over the rationals and the prefix-sum index over norms.

The sieve is a flat bit vector, grown on demand: a query above the
current limit re-sieves to the larger of the query and twice that limit.
A query above the fixed ceiling MAX_LIMIT raises SieveCapacityError
before anything is allocated, instead of truncating.

Every weighted sum over norms in the package is read from a NormIndex:
the sorted integer norms N with the prefix sums W, WL and WI of w, w log N
and w / N. The norms are integers, so the number of them up to a bound x
is a rank table read at floor(x); a sum over a range of norms is then two
table lookups and a difference of prefix sums, for one bound or for a
numpy array of bounds at once. The difference cancels: its absolute
error is a few unit roundoffs times the prefix sums at the upper bound
(up to 1e-10 for field windows with norms near 10^4), where a direct sum
over the range would err relative to the range's own terms.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SieveCapacityError

__all__ = [
    "MAX_LIMIT",
    "NormIndex",
    "SieveTable",
    "default_table",
]

# no table sieves beyond this; the exact criterion reads norms up to
# 16 log^2 disc, under 10^6 even for disc = 10^100
MAX_LIMIT = 10_000_000


class NormIndex:
    """Sorted integer norms N with weights w, and the prefix sums of w, w log N and w / N.

    Every query takes a scalar bound or, elementwise, numpy arrays of bounds
    that broadcast together; each costs two lookups in a rank table at
    most. The table holds #{N <= k} for every integer k up to the largest
    norm, 8 bytes each.
    """

    def __init__(self, norms, weights):
        self.norms = np.asarray(norms, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        whole = self.norms.astype(np.intp)
        if not np.array_equal(whole, self.norms):
            raise PreconditionError("norms must be integers")
        self._ranks = np.cumsum(np.bincount(whole, minlength=1))
        self._top = float(self._ranks.size - 1)
        zero = np.zeros(1)
        self._w = np.concatenate((zero, np.cumsum(weights)))
        self._wl = np.concatenate((zero, np.cumsum(weights * np.log(self.norms))))
        self._wi = np.concatenate((zero, np.cumsum(weights / self.norms)))

    def rank(self, x):
        """Number of norms <= x: the rank table at floor(x), x clipped to
        [0, largest norm]. A NaN x counts every norm, as a sorted search
        places NaN after every number."""
        return self._ranks[np.fmax(np.fmin(x, self._top), 0.0).astype(np.intp)]

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
    """One build of a SieveTable: the primes up to limit, never mutated."""

    limit: int
    primes: np.ndarray


def _sieve_to(limit: int) -> _Sieved:
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return _Sieved(limit, np.flatnonzero(~is_comp).astype(np.int64))


class SieveTable:
    """Primes, sieved on demand up to MAX_LIMIT.

    A query above the current limit re-sieves, under one lock, to the
    larger of the query and twice the limit. Each build is one immutable
    _Sieved snapshot; a query takes the snapshot once, so it never reads
    the primes of one build up to the limit of another.
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

    def primes_up_to(self, x: float) -> np.ndarray:
        primes = self._grow(x).primes
        return primes[: np.searchsorted(primes, math.floor(x), side="right")]


# ----------------------------------------------------------------------
# shared default table
# ----------------------------------------------------------------------
_default_table = SieveTable()


def default_table() -> SieveTable:
    """The process-wide shared table."""
    return _default_table
