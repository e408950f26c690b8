"""Exception types shared across the package."""


class DomainError(ValueError):
    """Bad input or violated precondition supplied by the caller."""


class InvalidGraphError(DomainError):
    """Graph construction rejected (self-loop, disconnected, out of range, ...)."""


class DimensionError(DomainError):
    """Matrix shapes incompatible with the requested operation."""


class ContractViolationError(DomainError):
    """A numerical precondition failed (non-Hermitian, non-unitary, ...)."""


class MoveNotApplicableError(DomainError):
    """A switching move was requested at a vertex lacking the required local pattern."""


class UsageError(DomainError):
    """Unparseable command-line input."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree did not; indicates a bug, not bad input."""
