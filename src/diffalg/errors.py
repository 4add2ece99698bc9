"""Exception types shared across the package."""


class DiffAlgError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInputError(DiffAlgError):
    """An operation received a zero polynomial or rational function where a
    nonzero one is required."""


class PreconditionError(DiffAlgError):
    """An operation's documented precondition was violated."""


class SingularMatrixError(DiffAlgError):
    """A matrix that must be invertible over Q(x) is singular."""


class NonStandardInputError(DiffAlgError):
    """A rational function that must be in standard form is not."""


class BoundExceededError(DiffAlgError):
    """A solver hit the configured degree cap before its certified bound
    applied, or a result has a coefficient too large to report; the verdict
    is undetermined rather than negative."""


class ParseError(DiffAlgError):
    """Expression text failed to parse.

    Carries the 0-based character position of the failure.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalVerificationError(DiffAlgError):
    """A certificate failed the substitution check that the procedure which
    made it runs before returning it; indicates a bug."""
