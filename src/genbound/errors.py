"""Exception taxonomy shared by all genbound modules.

Every failure mode that callers are expected to handle gets its own class,
so a caller can catch the one it handles and let the others through.
"""


class GenboundError(Exception):
    """Base class for all errors raised by this package."""


class SieveCapacityError(GenboundError):
    """A query needs primes beyond the sieve ceiling.

    Sieve tables grow on demand up to the fixed ceiling
    rational_sieve.MAX_LIMIT; a query above it is refused before anything
    is allocated.
    """


class PreconditionError(GenboundError):
    """A criterion or bound was invoked outside its hypotheses."""


class WindowTooWideError(GenboundError):
    """The window factor c makes the criterion denominator nonpositive."""


class SplittingUnavailableError(GenboundError):
    """Splitting data at a prime cannot be certified from the given polynomial.

    The offending prime is stored in ``p``.
    """

    def __init__(self, p: int, message: str | None = None):
        self.p = p
        super().__init__(message or f"splitting unavailable at p={p}")


class UnsupportedRepresentationError(GenboundError):
    """A defining polynomial cannot present a number field.

    Raised by number_field.parse_poly for empty input or a coefficient that
    is not an integer, and by NumberField for a polynomial that is not
    monic or has degree below 2.
    """


class IrreducibilityError(GenboundError):
    """Construction of a field rejected the defining polynomial."""


class UnknownDiscriminantError(GenboundError):
    """The field discriminant is uncertified and was not supplied by the caller."""


class NoBoundCertifiedError(GenboundError):
    """No admissible (T, c) pair certified a bound for the given input."""


class ArithmeticInvariantError(GenboundError):
    """An exact computation broke an invariant that its algorithm guarantees.

    Raised in place of ``assert`` so that ``python -O`` keeps the check: a
    composed form off the discriminant, elementary divisors whose product is
    not the class number, a failed divisibility in Dedekind's criterion.
    """
