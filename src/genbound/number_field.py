"""Number fields presented by monic integer polynomials.

Supplies exactly what the generation criteria consume: degree and signature,
a certified field discriminant where the index can be ruled out prime by
prime, splitting types of rational primes, the prime-ideal powers with
their von Mangoldt weights, and the Minkowski bound. Splitting at a prime
whose index status cannot be certified raises rather than guessing.

A quadratic field reads everything from a discriminant: its signature
from the sign of the polynomial's, and, once the field discriminant D is
known, the splitting of every p from D alone (ramified iff p | D,
otherwise split or inert by Euler's criterion, D^((p-1)/2) = 1 (mod p),
or at p = 2 by D = 1 (mod 8)). A supplied D of a quadratic field must be
fundamental. A field of higher degree takes its signature from a Sturm
chain. It, and a quadratic field whose D is unknown, take the splitting
from factoring the polynomial over GF(p): distinct-degree factoring where
p does not divide the polynomial discriminant, the full factorization
shape where Dedekind's criterion certifies that p does not divide the
index.

The prime-ideal powers are built from these splitting types and kept
only as two prefix-sum indexes (rational_sieve.NormIndex): one over the
prime ideals, for the window sum over (T, cT], and one over all
prime-ideal powers, for the short sum. Norms are integers, so each sum
is two lookups in a rank table and a difference of prefix sums, for
scalar bounds or numpy arrays of them; the difference cancels, with an
absolute error of a few unit roundoffs times the prefix sums at the upper
bound.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

from .arith import factorize, is_fundamental_discriminant, is_probable_prime
from .errors import (
    IrreducibilityError,
    PreconditionError,
    SplittingUnavailableError,
    UnknownDiscriminantError,
    UnsupportedRepresentationError,
)
from .polynomials import (
    dedekind_index_certified,
    discriminant,
    gf_distinct_degree,
    gf_factor_shape,
    gf_normalize,
    poly_eval,
    poly_trim,
    signature,
)
from .rational_sieve import NormIndex, default_table

__all__ = [
    "WeightedSum",
    "CubicFixture",
    "NumberField",
    "parse_poly",
    "load_cubic_fixtures",
]

# a field's indexes before its ideal stream is first built; shared, since
# building an index, even an empty one, costs tens of microseconds
_NO_NORMS = NormIndex([], [])


@dataclass(frozen=True)
class WeightedSum:
    """Value and bookkeeping of a weighted sum over prime ideals in (low, high]."""

    value: float
    term_count: int
    low: float
    high: float


@dataclass(frozen=True)
class CubicFixture:
    coeffs: tuple
    abs_disc: int


def parse_poly(text: str) -> list:
    """Comma-separated integer coefficients, constant term first.

    A trailing 1 is the explicit leading coefficient; when the last listed
    coefficient is not 1, a monic leading term one degree higher is implied.
    The ASCII hyphen and the unicode minus sign are both accepted.
    """
    cleaned = text.replace("−", "-").strip()
    if not cleaned:
        raise UnsupportedRepresentationError("empty polynomial")
    try:
        coeffs = [int(tok.strip()) for tok in cleaned.split(",")]
    except ValueError as exc:
        raise UnsupportedRepresentationError(f"bad coefficient in {text!r}") from exc
    if coeffs[-1] != 1:
        coeffs.append(1)
    return coeffs


def _integer(c) -> int:
    """A coefficient as a Python int; a Python or numpy integer, nothing else."""
    try:
        return operator.index(c)
    except TypeError:
        raise UnsupportedRepresentationError(f"coefficient {c!r} is not an integer") from None


def _signed_divisors(n):
    """The divisors of n and their negatives: for each divisor d <= sqrt|n|,
    in increasing order, the set {d, -d, |n|/d, -|n|/d}. None for n = 0."""
    a = abs(n)
    for d in range(1, math.isqrt(a) + 1):
        if a % d == 0:
            yield from {d, -d, a // d, -(a // d)}


def _integer_roots(coeffs):
    if coeffs[0] == 0:
        yield 0
        return
    for r in _signed_divisors(coeffs[0]):
        if poly_eval(coeffs, r) == 0:
            yield r


def _quartic_quadratic_split(coeffs):
    # f = x^4 + c3 x^3 + c2 x^2 + c1 x + c0 = (x^2+ax+b)(x^2+cx+d)?
    c0, c1, c2, c3 = coeffs[0], coeffs[1], coeffs[2], coeffs[3]
    for b in sorted(_signed_divisors(c0)):
        dd = c0 // b
        s = c3
        prod_ac = c2 - b - dd
        disc = s * s - 4 * prod_ac
        if disc < 0:
            continue
        k = math.isqrt(disc)
        if k * k != disc:
            continue
        for kk in (k, -k):
            if (s + kk) % 2:
                continue
            aa = (s + kk) // 2
            cc = s - aa
            if aa * dd + b * cc == c1:
                return (b, aa), (dd, cc)
    return None


def _certify_irreducible(coeffs) -> str:
    """Certificate string, or IrreducibilityError."""
    n = len(coeffs) - 1
    if n == 2:
        # x^2 + b x + c has a rational, hence integer, root exactly when
        # b^2 - 4c is a square k^2; k = b (mod 2), so (k - b)/2 is exact
        b = coeffs[1]
        d = b * b - 4 * coeffs[0]
        if d >= 0 and math.isqrt(d) ** 2 == d:
            raise IrreducibilityError(f"reducible: integer root {(math.isqrt(d) - b) // 2}")
        return "no rational root"
    for r in _integer_roots(coeffs):
        raise IrreducibilityError(f"reducible: integer root {r}")
    if n == 3:
        # monic with no integer root: any factorization would need a
        # rational root
        return "no rational root"
    if n == 4:
        # by Gauss's lemma the only other factorization is into two monic
        # integer quadratics, which the search settles
        split = _quartic_quadratic_split(coeffs)
        if split is not None:
            raise IrreducibilityError(f"reducible: quadratic factors {split}")
        return "no rational root, no quadratic factorization"
    for p in default_table().primes_up_to(209).tolist():
        if gf_factor_shape(coeffs, p) == [(1, n)]:
            return f"irreducible modulo {p}"
    raise IrreducibilityError(
        "cannot certify irreducibility: no modular certificate below 210 "
        "and degree too high for exhaustive factor search"
    )


class NumberField:
    """Field Q[x]/(f) for a monic irreducible integer polynomial f.

    The field discriminant is certified from the polynomial discriminant
    when the index is ruled out at every prime whose square divides it;
    otherwise it stays unknown unless supplied (and cross-checked) by the
    caller via the disc argument.
    """

    def __init__(self, coeffs, disc: int | None = None):
        coeffs = poly_trim([_integer(c) for c in coeffs])
        if not coeffs or coeffs[-1] != 1:
            raise UnsupportedRepresentationError("monic polynomial required")
        self.degree = len(coeffs) - 1
        if self.degree < 2:
            raise UnsupportedRepresentationError("degree must be at least 2")
        self.coeffs = tuple(coeffs)
        self.irreducibility_certificate = _certify_irreducible(coeffs)
        self.disc_defining = discriminant(coeffs)
        if self.degree == 2:
            # an irreducible quadratic has real roots exactly when its
            # discriminant is positive
            self.r1, self.r2 = (2, 0) if self.disc_defining > 0 else (0, 1)
        else:
            self.r1, self.r2 = signature(coeffs)
        self._split_memo = {}
        certified = self._certify_field_disc()
        if disc is not None:
            self._validate_supplied_disc(disc, certified)
            self._field_disc = disc
        else:
            self._field_disc = certified
        self._stream_lock = threading.RLock()
        self._built_to = 0
        self._prime_index = self._power_index = _NO_NORMS

    def __repr__(self):
        return f"NumberField({list(self.coeffs)})"

    # ------------------------------------------------------------------
    # discriminant certification
    # ------------------------------------------------------------------
    def _dedekind(self, p: int) -> bool:
        """True when p is certified not to divide the index."""
        # disc_defining = index^2 * field disc, so an index prime has its
        # square in disc_defining
        return bool(self.disc_defining % (p * p)) or dedekind_index_certified(list(self.coeffs), p)

    def _certify_field_disc(self):
        fac, cofactor = factorize(self.disc_defining)
        if cofactor != 1:
            return None
        square_primes = [p for p, e in fac.items() if e >= 2]
        if all(self._dedekind(p) for p in square_primes):
            return self.disc_defining
        return None

    def _validate_supplied_disc(self, disc, certified):
        if certified is not None and disc != certified:
            raise ValueError(
                f"supplied discriminant {disc} contradicts certified value {certified}"
            )
        if disc == 0 or self.disc_defining % disc != 0:
            raise ValueError("supplied discriminant must divide the polynomial discriminant")
        q = self.disc_defining // disc
        if q <= 0 or math.isqrt(q) ** 2 != q:
            raise ValueError("index squared between discriminants must be a positive square")
        if (disc < 0) != (self.r2 % 2 == 1):
            raise ValueError("discriminant sign must be (-1)^r2")
        if disc % 4 not in (0, 1):
            raise ValueError("discriminant must be 0 or 1 mod 4")
        if self.degree == 2 and not is_fundamental_discriminant(disc):
            # the splitting is read from disc alone, as a field discriminant
            raise ValueError(f"supplied discriminant {disc} is not fundamental")

    @property
    def field_disc(self) -> int:
        if self._field_disc is None:
            raise UnknownDiscriminantError(
                "field discriminant not certified at all primes; supply disc explicitly"
            )
        return self._field_disc

    @property
    def has_field_disc(self) -> bool:
        return self._field_disc is not None

    @property
    def log_abs_disc(self) -> float:
        return math.log(abs(self.field_disc))

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def split_prime(self, p: int):
        """Splitting type of p as a sorted list of (e, f) pairs, one per prime ideal."""
        if p < 2 or not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        return self._shape(p)

    def _shape(self, p: int):
        """split_prime for a p already known to be prime; memoised."""
        memo = self._split_memo
        if p in memo:
            return memo[p]
        if self.degree == 2 and self._field_disc is not None:
            shape = _quadratic_shape(self._field_disc, p)
        else:
            f = list(self.coeffs)
            if self.disc_defining % p:
                shape = sorted(
                    (1, d) for prod, d in gf_distinct_degree(gf_normalize(f, p), p)
                    for _ in range((len(prod) - 1) // d)
                )
            elif self._dedekind(p):
                shape = gf_factor_shape(f, p)
            else:
                raise SplittingUnavailableError(p)
            if sum(e * d for e, d in shape) != self.degree:
                raise SplittingUnavailableError(
                    p, f"splitting type {shape} at p={p} does not add up to degree {self.degree}"
                )
        memo[p] = shape
        return shape

    # ------------------------------------------------------------------
    # ideal stream
    # ------------------------------------------------------------------
    def _ensure_stream(self, x: float) -> None:
        with self._stream_lock:
            if x <= self._built_to:
                return
            target = int(max(math.ceil(x), 2 * self._built_to, 64))
            primes = default_table().primes_up_to(target)
            rows = []
            for p in primes.tolist():
                for e, fdeg in self._shape(p):
                    norm_p = p ** fdeg
                    if norm_p > target:
                        continue
                    w = fdeg * math.log(p)
                    norm = norm_p
                    m = 1
                    while norm <= target:
                        rows.append((norm, p, fdeg, m, w))
                        norm *= norm_p
                        m += 1
            rows.sort()
            self._power_index = NormIndex([r[0] for r in rows], [r[4] for r in rows])
            first = [r for r in rows if r[3] == 1]
            self._prime_index = NormIndex([r[0] for r in first], [r[4] for r in first])
            self._built_to = target

    def norm_indexes(self, x: float) -> tuple[NormIndex, NormIndex]:
        """Indexes over the prime ideals and over all prime-ideal powers, complete to norm x."""
        if not x < math.inf:
            raise PreconditionError(f"norm bound must be below infinity, not {x!r}")
        with self._stream_lock:
            self._ensure_stream(x)
            return self._prime_index, self._power_index

    def prime_ideal_weighted_sum(self, T: float, cT: float) -> WeightedSum:
        """Sum of log(Np) log(cT/Np) over prime ideals with T < Np <= cT."""
        if not 1.0 <= T < cT:
            raise ValueError("need 1 <= T < cT")
        primes, _ = self.norm_indexes(cT)
        count = int(primes.rank(cT) - primes.rank(T))
        return WeightedSum(float(primes.window_sum(T, cT)), count, T, cT)

    def short_ideal_sum(self, A: float) -> float:
        """Sum of Lambda(a) (1/A - 1/Na) over ideal powers with Na <= A; never positive."""
        if A < 2:
            return 0.0
        _, powers = self.norm_indexes(A)
        return float(powers.short_sum(A))

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def minkowski_bound(self) -> float:
        n = self.degree
        return (
            math.factorial(n) / n**n
            * (4.0 / math.pi) ** self.r2
            * math.sqrt(abs(self.field_disc))
        )


def _quadratic_shape(D: int, p: int):
    """Splitting type of p in the quadratic field of discriminant D: ramified
    if p | D, else split exactly when D is a square mod 4p, which is Euler's
    criterion for odd p and D = 1 (mod 8) for p = 2."""
    if D % p == 0:
        return [(2, 1)]
    if (D % 8 == 1) if p == 2 else pow(D, (p - 1) // 2, p) == 1:
        return [(1, 1), (1, 1)]
    return [(1, 2)]


def load_cubic_fixtures():
    """Bundled cubic test fields: coefficient rows plus expected |disc|."""
    from importlib import resources

    text = resources.files("genbound").joinpath("data/cubic_fields.txt").read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coeff_part, disc_part = line.split()
        coeffs = tuple(int(t) for t in coeff_part.split(","))
        out.append(CubicFixture(coeffs, int(disc_part)))
    return out
