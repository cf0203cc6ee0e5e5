"""Exception types shared across the package."""


class OrbitrefError(Exception):
    """Base class for all library errors."""


class MixedFields(OrbitrefError):
    """Two scalars or matrices over different field descriptors were combined."""


class DivisionByZero(OrbitrefError):
    """Division by the zero element of a field."""


class WrongField(OrbitrefError):
    """Operation applied to a scalar/matrix over an unsupported field kind."""


class ShapeMismatch(OrbitrefError):
    """Matrix/vector dimensions are incompatible."""


class NumericKindUnsupported(OrbitrefError):
    """Exact-only operation applied to a floating complex matrix."""


class NotSplit(OrbitrefError):
    """The characteristic polynomial does not factor into linear terms over
    the working field.  Carries the residual (non-split) factor."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CriterionHolds(OrbitrefError):
    """No witness exists: the block-gap criterion is satisfied."""


class NotPrime(OrbitrefError):
    """A prime was required."""


class NoStockModulus(ValueError):
    """GF(p^k), k >= 2, was asked for without a modulus, and there is no
    stock polynomial for it.  A ValueError, like FiniteField's other
    parameter errors, so that callers can say how to give one."""


class BudgetExceeded(OrbitrefError):
    """An exhaustive computation would exceed the configured budget."""


class FiniteFieldUnsupported(OrbitrefError):
    """Modulus-based criteria are specific to subfields of C."""


class ParseError(OrbitrefError):
    """Malformed scalar text, matrix file, or CLI input."""
