"""Exception types shared across the package.

The split mirrors how callers react: algebra errors are programming or
domain mistakes, witness/construction errors are mathematical rejections
of the input data, and format errors are malformed serialized input.
"""


class AlgebraError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class VariableMismatch(AlgebraError):
    """Operands live over different variable sets, or a name is unknown."""


class ZeroInput(AlgebraError):
    """An operation (order, degree, valuation, resultant) got a zero input."""


class NotInvertible(AlgebraError):
    """A substitution needs the inverse of an element that has none here."""


class NotDivisible(AlgebraError):
    """Exact division was requested but the quotient is not polynomial."""


class WitnessInvalid(Exception):
    """Witness data fails one of its decidable validity conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConstructionFailure(Exception):
    """A witness polynomial does not satisfy the property the construction
    is supposed to guarantee; only `witness_poly` raises it.  The tail
    coefficients never raise it: validation proves their step condition
    once for every step."""


class UnsupportedCase(Exception):
    """The request is outside the implemented (demonstration) scope."""


class FormatError(Exception):
    """Serialized input is malformed or violates the documented schema."""
