"""Exception types shared across the package, and its one integer gate."""

import operator


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


def whole(value, what: str, least: int | None = None, error: type[DomainError] = DomainError) -> int:
    """``value`` as an int, at least ``least`` when given, else ``error``.
    It is read through ``operator.index``, so floats and strings are refused,
    never truncated; bools are refused too, and numpy integers pass."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise error(f"{what} must be >= {least}, got {n}")
    return n
