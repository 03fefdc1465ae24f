"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(EngineError, ValueError):
    """An argument lies outside the domain of the requested construction."""


class CapExceeded(EngineError):
    """A size guard refused something too large, such as a table over the memory bound."""


class SearchTimeout(EngineError):
    """A search exceeded its time budget; carries the best bound seen so far."""

    def __init__(self, message: str, best_order_found: int = 0):
        super().__init__(message)
        self.best_order_found = best_order_found


class OddModulus(EngineError):
    """An operation requiring an even modulus received an odd one."""


class DetNotOne(EngineError):
    """A matrix was required to have determinant one."""


class NotNormal(EngineError):
    """Quotient requested by a subgroup that is not normal."""


class NotCentral(EngineError):
    """A central subgroup was required."""


class QuotientNotAbelian(EngineError):
    """The quotient by the given subgroup is not abelian."""


class HypothesisViolation(EngineError):
    """Input data does not satisfy the hypotheses of the requested check."""


class IndexExceedsSix(EngineError):
    """The translation subgroup has index above six; the input action is invalid."""


class PrimeDoesNotDivide(EngineError):
    """The given prime does not divide the group order."""


class PrimeTooSmall(EngineError):
    """The admissibility criterion is only defined for primes above three."""


class ZeroArea(EngineError):
    """Both areas of a symplectic shape must be nonzero."""
