"""Exception hierarchy shared by all modules."""


class SpectopError(Exception):
    """Base class for every error raised by this package."""


class KindMismatchError(SpectopError):
    """An element, ideal or point does not match the ring it was used with."""


class UnsupportedError(SpectopError):
    """The operation is not defined for this ring kind."""


class UnsupportedSymbolicError(UnsupportedError):
    """No symbolic rule exists for this (representation, ring) pair."""


class NonEnumerableError(SpectopError):
    """The spectrum is symbolic (infinite) where explicit enumeration is required."""


class FactorizationLimitError(SpectopError):
    """Input exceeds a factorization bound: the size bound on n, the degree
    cap on a polynomial, or the work budget, when no stage splits a cofactor
    within ECM's schedule of curves."""


class BadSlotError(SpectopError):
    """Invalid factor index into a product ring."""


class BadArityError(SpectopError):
    """Invalid size parameter for a ring construction."""


class WildPrimeError(SpectopError):
    """The point is not a tame prime of the product, so it cannot be contracted."""


class LyingOverNotFoundError(SpectopError):
    """Signals misuse of laying_over (preconditions violated), never a counterexample."""


class TooManyVarsError(SpectopError):
    """Variable count exceeds the brute-force oracle bound or the axes-ring bound."""
