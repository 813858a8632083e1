"""Exception types shared across the package."""


class AllocationError(Exception):
    """Base class for every error raised by odtalloc."""


class NegativeWeight(AllocationError):
    """A weight vector contains a negative entry."""


class AllZero(AllocationError):
    """A weight vector has no strictly positive entry."""


class ParseError(AllocationError):
    """A CSV file could not be parsed; carries the 1-based line number."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"line {row}: {message}"
        super().__init__(message)
        self.row = row


class DimensionMismatch(AllocationError):
    """Vector or matrix dimensions are inconsistent."""


class OutOfRange(AllocationError):
    """A coordinate lies outside its valid range: ``COORD_LIMIT``, or a longitude or latitude."""


class NotControllable(AllocationError):
    """The computed controllability Gramian is numerically singular."""


class SingularGramian(AllocationError):
    """A Gramian passed to a whitening/cost routine is not positive definite."""


class MassMismatch(AllocationError):
    """Total task mass and total agent mass differ beyond tolerance."""


class IterationLimit(AllocationError):
    """An iterative solver hit its iteration cap; carries the achieved violation."""

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class InvalidSpec(AllocationError):
    """A scenario specification field is invalid; carries the field name."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
